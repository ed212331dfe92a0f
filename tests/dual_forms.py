"""A hypothesis source of small dual forms, shared by the inverse-system and
Lefschetz suites."""

from fractions import Fraction

from hypothesis import strategies as st

from aperylef import SparsePoly


def dual_form_text(data):
    """A homogeneous form of degree 2 to 4 in 2 to 4 variables, or a Perazzo
    form sum c_i a^(e-i) b^i x_i, whose Hessian vanishes, so both routes
    find the SLP failing."""
    def coefficient():
        return Fraction(data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), data.draw(st.integers(1, 2)))

    if data.draw(st.booleans()):
        e = data.draw(st.integers(2, 3))
        names = ("a", "b") + tuple(f"x{i}" for i in range(e + 1))
        terms = {(e - i, i) + tuple(int(j == i) for j in range(e + 1)): coefficient() for i in range(e + 1)}
        return str(SparsePoly(names, terms))
    names = tuple("wxyz"[: data.draw(st.integers(2, 4))])
    degree = data.draw(st.integers(2, 4))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        exps = [0] * len(names)
        for _ in range(degree):
            exps[data.draw(st.integers(0, len(names) - 1))] += 1
        terms[tuple(exps)] = coefficient()
    return str(SparsePoly(names, terms))
