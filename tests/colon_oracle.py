"""The one-shot colon by a power, kept as a test oracle.

This is how `aperylef.algebra` built A/(0:x^c) before a power became a chain
of c calls of `GradedAlgebra.colon_step`: a label is in (0:x^c) when c
successive multiplications by x reach None, and the quotient keeps the other
labels and A's table on them, with an image in the ideal sent to None and the
column of a variable in the ideal dropped; a quotient of a monomial algebra
is monomial.  Unlike a colon step it returns the zero ring as an algebra of
dimension 0.  `annihilator` reads the ideal back off a quotient, as the
labels of A outside it, and `colon_steps` walks the library's chain of c
steps that tests compare against the oracle.
"""

from aperylef import GradedAlgebra


def colon_by_power(alg: GradedAlgebra, variable: str, c: int) -> GradedAlgebra:
    """A/(0:x^c) for the variable x of alg and c >= 0."""
    column = alg.variables.index(variable)

    def killed(label) -> bool:
        for _ in range(c):
            label = alg.times[label][column]
            if label is None:
                return True
        return False

    ideal = {lab for labels in alg.basis for lab in labels if killed(lab)}
    kept = [i for i, lab in enumerate(alg.var_labels) if lab not in ideal]
    return GradedAlgebra(
        variables=tuple(alg.variables[i] for i in kept),
        basis=[[lab for lab in labels if lab not in ideal] for labels in alg.basis],
        var_labels=[alg.var_labels[i] for i in kept],
        times={
            lab: tuple(None if row[i] in ideal else row[i] for i in kept)
            for lab, row in alg.times.items()
            if lab not in ideal
        },
        kind="quotient",
        monomial=alg.monomial,
    )


def annihilator(alg: GradedAlgebra, quotient) -> list[list]:
    """The labels of alg outside a colon quotient of it (None for the zero
    ring), degree by degree: the basis of the colon ideal."""
    kept = set() if quotient is None else {lab for labels in quotient.basis for lab in labels}
    return [[lab for lab in labels if lab not in kept] for labels in alg.basis]


def colon_steps(alg: GradedAlgebra, variable: str, c: int):
    """The library's path to A/(0:x^c): c colon steps by the variable, or
    None once a step reaches the zero ring."""
    for _ in range(c):
        if alg is None:
            break
        alg = alg.colon_step(variable)
    return alg
