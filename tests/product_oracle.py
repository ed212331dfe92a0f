"""Products of any two labels, read off an algebra's table of variable
actions, kept as the oracle for the tests that multiply two labels.

A GradedAlgebra stores only how its variables act (``times``).  They
generate, so every label is 1 times a word in the variables, and the product
of a and b is a walked along a word of b.  The tests that multiply every pair
or triple of labels check that this is well defined: commutative and
associative whichever word is found.
"""


def words(alg) -> dict:
    """A word (a tuple of variable indices) for each label a walk up from 1
    in degree order reaches; the first word found for each."""
    found = {lab: () for lab in alg.basis[0]}
    for labels in alg.basis:
        for lab in labels:
            if lab not in found:
                continue
            for i, target in enumerate(alg.times[lab]):
                if target is not None:
                    found.setdefault(target, found[lab] + (i,))
    return found


def products(alg):
    """The product of two labels of alg, as a function of the two: a label
    or None.  Raises KeyError for a second label no word reaches."""
    found = words(alg)

    def product(a, b):
        for i in found[b]:
            if a is None:
                break
            a = alg.times[a][i]
        return a

    return product
