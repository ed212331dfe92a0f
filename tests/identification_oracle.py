"""The codimension-3 identification as it once compared every pair of
labels, kept as the oracle the variable-only comparison is checked against.
The product of two labels is the word walk of tests/product_oracle.py."""

from product_oracle import products, words


def same_graded_presentation(quotient, A, S):
    """Whether the value map of the quotient's labels is a degree-preserving
    bijection onto A's labels that commutes with every product of two labels.
    A table whose variables do not generate fixes no such product."""
    gens = S.generators
    if quotient.hilbert() != A.hilbert():
        return False
    value = {
        lab: sum(l * g for l, g in zip(lab, gens[1:]))
        for labels in quotient.basis
        for lab in labels
    }
    for q_labels, a_labels in zip(quotient.basis, A.basis):
        if sorted(value[lab] for lab in q_labels) != list(a_labels):
            return False
    if len(set(value.values())) != A.dimension:
        return False
    if len(words(quotient)) != quotient.dimension or len(words(A)) != A.dimension:
        return False
    q_product, a_product = products(quotient), products(A)
    labels = [lab for labels in quotient.basis for lab in labels]
    for x in labels:
        for y in labels:
            qp = q_product(x, y)
            ap = a_product(value[x], value[y])
            if (qp is None) != (ap is None):
                return False
            if qp is not None and value[qp] != ap:
                return False
    return True
