"""Graded Artinian algebras given by a basis and the action of the variables.

An algebra is its graded basis and one table: ``times[label][i]`` is the
label times the i-th variable, a label of the next degree or None for zero.
The actions commute and the variables generate, so the table fixes every
product, and it is all this module reads for the maps, the socle, the colon
ideals and the codimension-3 identification.

Two constructions fill the table.  An apery algebra has one basis label per
apery element, graded by order; a label times a variable (an element of
order 1) is their sum when that is an apery element of the next order, else
zero.  A box algebra has exponent-tuple labels inside a bounded box; a
variable adds one to its exponent, optionally rewrites one pure power into a
fixed mixed monomial, and truncates anything leaving the box.

A colon quotient A/(0:x) is spanned by the labels of A outside the ideal
(0:x); its table is A's on those labels, with images in the ideal sent to
zero and the columns of the variables the ideal holds dropped.  It is an
algebra in its own right and builds its maps from its own table, as every
algebra does.  A power is a chain of such steps: (0:x^(c+1)) in A is (0:x)
in A/(0:x^c), so GradedAlgebra.colon_step is the only colon quotient.  Each
algebra builds a map and a colon quotient once, and an Apery table gives one
algebra while anything holds it.

The map of one step by the generic form is the table itself: its entry
(w', w) is the sum of the variables that carry w to w' (the torus form of a
one-step map, Migliore-Miro-Roig-Nagel 2011).  So a OneStepMap keeps those
cells and ranks itself at a point modulo linalg.POINT_PRIME straight from
them; only a rank below full there builds its polynomial entries and goes
to linalg.point_rank.  A map of two or more steps walks the table
(multiplication_matrix).

The Apery algebra of a semigroup with at most three minimal generators is
monomial: each Apery element has one maximal representation r(w), so the
algebra is k[y, z]/(monomial ideal) with basis the monomials x^r(w).  The
map by the p-th power of the generic form t.x then has entries
multinomial(r(w') - r(w)) t^(r(w') - r(w)), that is
M(t) = diag(t^r(w')) M(1) diag(t^-r(w)) with M(1) the integer matrix of
path counts (the torus argument, Migliore-Miro-Roig-Nagel 2011, Prop. 2.2).
Such an algebra's maps are M(1): at a point with no zero coordinate the
symbolic map has the rank of M(1), and that is its generic rank.  A colon
quotient of a monomial algebra is monomial too, since (0:x) is spanned by
monomials; its exponent vectors are its parent's on its labels, less the
coordinates of the variables it drops (0 there).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence

from .errors import DegreeOutOfRange, InternalFault, NotApplicable
from .linalg import POINT_PRIME, Matrix, _mod_p, _rank_mod_p, point_rank
from .polynomial import SparsePoly, grlex_key
from .semigroup import AperyTable, FrameData, NumericalSemigroup


def variable_names(codim: int) -> tuple[str, ...]:
    """y, z, w for codimension up to three, x2..xn beyond."""
    if codim <= 3:
        return ("y", "z", "w")[:codim]
    return tuple(f"x{i}" for i in range(2, codim + 2))


class GradedAlgebra:
    """Finite graded algebra: a basis and the action of its variables.

    ``times[label][i]`` is the label times the i-th variable (the label
    ``var_labels[i]`` of degree 1): a label of the next degree, or None.
    The actions commute, and the variables generate: every label of positive
    degree is a label times a variable.  So the table is that of an
    associative, commutative algebra, whose product of two labels walks one
    along any word in the variables that reaches the other.  The socle (the
    labels the variables kill) and the WLP middle-map criterion of
    lefschetz.wlp_by_ranks rely on it; every construction here keeps it.

    A monomial algebra, k[x]/(monomial ideal), holds the exponent vector of
    each label in ``exponents`` (None otherwise), which its builder gives,
    and builds its maps as integer path-count matrices.
    """

    def __init__(
        self,
        variables: tuple[str, ...],
        basis: list[list],
        var_labels: list,
        times: dict,
        kind: str,
        exponents: Optional[dict] = None,
    ):
        # Trim empty top degrees so top_degree is the real socle degree.
        while basis and not basis[-1]:
            basis = basis[:-1]
        self.variables = tuple(variables)
        self.basis = tuple(tuple(b) for b in basis)
        self.var_labels = tuple(var_labels)
        self.times = times
        self.kind = kind
        self._hilbert = tuple(len(b) for b in self.basis)
        self._maps: dict[tuple[int, int], Matrix] = {}
        self._colons: dict[str, Optional[GradedAlgebra]] = {}
        self._gorenstein: Optional[dict] = None
        self.exponents = exponents

    # -- structure ----------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return len(self.basis) - 1

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.basis)

    @property
    def codim(self) -> int:
        return len(self.basis[1]) if len(self.basis) > 1 else 0

    def hilbert(self) -> tuple[int, ...]:
        return self._hilbert

    def socle_labels(self) -> list:
        n, times = len(self.var_labels), self.times
        return [lab for labels in self.basis for lab in labels if times[lab].count(None) == n]

    def gorenstein_info(self) -> dict:
        """Hilbert symmetry and socle dimension, reported separately."""
        if self._gorenstein is None:
            h = self.hilbert()
            symmetric = h == h[::-1]
            socle = self.socle_labels()
            self._gorenstein = {
                "hilbert_symmetric": symmetric,
                "socle_dimension": len(socle),
                "is_gorenstein": symmetric and len(socle) == 1,
            }
        return dict(self._gorenstein)

    def is_gorenstein(self) -> bool:
        if self._gorenstein is None:
            self.gorenstein_info()
        return self._gorenstein["is_gorenstein"]

    # -- the protocol the Lefschetz routes share with DualAlgebraView ---------

    def map_matrix(self, d: int, power: int) -> Matrix:
        """Multiplication by the generic linear form^power, degree d to d+power.

        Built once per (d, power) and shared by every caller, who must not
        change it: a monomial algebra gives the integer matrix M(1) of path
        counts, whose rank at every point with no zero coordinate is the
        symbolic map's (module docstring).  Any other algebra gives the map
        by LinearForm.symbolic, whose entries are polynomials in the
        variables, so a point of them is a linear form: a OneStepMap read
        off the table for power 1, multiplication_matrix's walk above it.
        """
        key = (d, power)
        if key not in self._maps:
            if self.exponents is not None:
                self._maps[key] = _path_count_map(self, d, power)
            elif power == 1:
                self._maps[key] = OneStepMap(self, d)
            else:
                self._maps[key] = multiplication_matrix(self, LinearForm.symbolic(self), d, power)
        return self._maps[key]

    def colon_step(self, variable: str) -> Optional["GradedAlgebra"]:
        """Quotient by the annihilator of one variable; None for the zero ring.

        The annihilator (0:x) is spanned by the labels x sends to None; the
        quotient keeps the other labels and this table on them, with an image
        in (0:x) sent to None and the column (and exponent) of a variable in
        (0:x) dropped, in one pass.  A variable an earlier colon step killed
        is zero here, so its annihilator is the whole algebra.  Built once
        per variable and shared by every caller, as the maps are.
        """
        if variable not in self.variables:
            return None
        if variable not in self._colons:
            self._colons[variable] = self._colon(variable)
        return self._colons[variable]

    def _colon(self, variable: str) -> Optional["GradedAlgebra"]:
        column = self.variables.index(variable)
        times, parent = self.times, self.exponents
        # a variable whose label a box bound of 0 leaves out of the basis is kept
        kept = [i for i, lab in enumerate(self.var_labels) if lab not in times or times[lab][column] is not None]
        dropped = len(kept) < len(self.var_labels)
        basis, table, exponents = [], {}, None if parent is None else {}
        for labels in self.basis:
            level = []
            for lab in labels:
                row = times[lab]
                if row[column] is None:
                    continue  # lab is in (0:x)
                level.append(lab)
                if dropped:
                    row = [row[i] for i in kept]
                table[lab] = tuple([None if t is None or times[t][column] is None else t for t in row])
                if parent is not None:
                    r = parent[lab]
                    exponents[lab] = tuple([r[i] for i in kept]) if dropped else r
            basis.append(level)
        if not table:
            return None
        return GradedAlgebra(
            variables=tuple(self.variables[i] for i in kept),
            basis=basis,
            var_labels=[self.var_labels[i] for i in kept],
            times=table,
            kind="quotient",
            exponents=exponents,
        )

    def __repr__(self) -> str:
        return f"GradedAlgebra(kind={self.kind!r}, hilbert={self.hilbert()})"


def build_algebra(table: AperyTable) -> GradedAlgebra:
    """The graded algebra whose basis is the apery set graded by order.

    While anything holds the table's algebra, the table gives that algebra
    again, with the maps it has built.  The table keeps only a weak
    reference: the table and its semigroup refer to each other, so a strong
    one would keep every map alive until the cycle collector runs.
    """
    alg = table._algebra() if table._algebra is not None else None
    if alg is None:
        alg = _apery_algebra(table)
        table._algebra = weakref.ref(alg)
    return alg


def _apery_algebra(table: AperyTable) -> GradedAlgebra:
    order_of = table.order_of
    top = table.socle_degree
    basis: list[list[int]] = [[] for _ in range(top + 1)]
    for e, d in order_of.items():  # the elements in increasing order
        basis[d].append(e)
    degree1 = basis[1] if top >= 1 else []
    times = {
        a: tuple(a + v if order_of.get(a + v) == d + 1 else None for v in degree1)
        for a, d in order_of.items()
    }
    exponents = None
    if len(degree1) <= 2:  # monomial: r(w) is the one maximal representation of w, less g_1's exponent
        exponents = {}
        for e, reps in zip(table.elements, table.max_reps):
            if len(reps) != 1:
                raise InternalFault(f"apery element {e} of a monomial algebra has {len(reps)} maximal representations")
            exponents[e] = reps[0][1:]
    return GradedAlgebra(
        variables=variable_names(len(degree1)),
        basis=basis,
        var_labels=degree1,
        times=times,
        kind="apery",
        exponents=exponents,
    )


def box_algebra(
    variables: tuple[str, ...],
    bounds: Sequence[int],
    rewrite: Optional[tuple[int, tuple[int, ...]]] = None,
    kind: str = "box",
) -> GradedAlgebra:
    """Monomial box algebra with an optional single pure-power rewrite.

    ``rewrite = (i, repl)`` sends the (bounds[i]+1)-th power of variable i to
    the monomial with exponents ``repl``; repl must avoid variable i, so one
    rewrite of a label times variable i leaves that exponent 0.
    """
    bounds = tuple(int(b) for b in bounds)
    if rewrite is not None:
        ri, repl = rewrite
        repl = tuple(int(x) for x in repl)
        if repl[ri]:
            raise ValueError("rewrite replacement must avoid its own variable")
        rewrite = (ri, repl)
    labels = sorted(iter_product(*(range(b + 1) for b in bounds)), key=grlex_key)
    top = sum(bounds)
    basis: list[list] = [[] for _ in range(top + 1)]
    for lab in labels:
        basis[sum(lab)].append(lab)
    var_labels = [tuple(int(i == j) for i in range(len(variables))) for j in range(len(variables))]
    box = set(labels)

    def image(lab, i):
        if rewrite is not None and i == rewrite[0] and lab[i] == bounds[i]:
            # x_i^(bounds[i]+1) is repl, which avoids x_i
            lab = tuple(0 if j == i else x + r for j, (x, r) in enumerate(zip(lab, rewrite[1])))
        else:
            lab = lab[:i] + (lab[i] + 1,) + lab[i + 1:]
        return lab if lab in box else None

    times = {lab: tuple(image(lab, i) for i in range(len(variables))) for lab in labels}
    return GradedAlgebra(
        variables=tuple(variables),
        basis=basis,
        var_labels=var_labels,
        times=times,
        kind=kind,
    )


def build_gamma_algebra(frame: FrameData) -> GradedAlgebra:
    """The box algebra on exponents up to gamma.

    In the complete intersection case this coincides with the apery algebra
    itself, so that is what is returned.  Otherwise the construction needs
    the codimension-3 shape: a single middle-variable double representation
    provides the rewrite monomial, and the two outer variables truncate.
    """
    table = frame.table
    if frame.is_ci():
        return build_algebra(table)
    gens = table.semigroup.generators
    if len(gens) != 4:
        raise NotApplicable("gamma algebra needs a complete intersection or codimension 3")
    if frame.gamma[1] >= frame.beta[1]:
        raise NotApplicable("codimension-3 structure requires gamma < beta in the middle")
    witness = frame.gamma_witness[2]
    alg = box_algebra(
        variable_names(3),
        frame.gamma,
        rewrite=(1, (witness[1], 0, witness[3])),
        kind="gamma",
    )
    if alg.dimension != frame.box_gamma_points():
        raise InternalFault(f"the gamma algebra has dimension {alg.dimension}, not the box's point count")
    return alg


@dataclass(frozen=True)
class LinearForm:
    """Linear form in the degree-1 basis; rational or named-symbol coefficients."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("linear form needs at least one coefficient")
        if all(
            (not isinstance(c, str)) and Fraction(c) == 0 for c in self.coefficients
        ):
            raise ValueError("linear form must be nonzero")

    @classmethod
    def symbolic(cls, alg: GradedAlgebra) -> "LinearForm":
        """The generic form: the coefficient of each variable is named by the
        variable itself, so a witness point assigns the map's entries."""
        return cls(alg.variables)

    @classmethod
    def rational(cls, values: Sequence) -> "LinearForm":
        return cls(tuple(Fraction(v) for v in values))

    def symbol_names(self) -> tuple[str, ...]:
        seen = []
        for c in self.coefficients:
            if isinstance(c, str) and c not in seen:
                seen.append(c)
        return tuple(seen)


def multiplication_matrix(alg: GradedAlgebra, L: LinearForm, d: int, power: int = 1) -> Matrix:
    """Matrix of multiplication by L^power from degree d to degree d+power.

    Each column carries its label through power multiplications by L.  A
    step out of the column's own label yields each variable's coefficient
    polynomial itself, and the first path into a label is stored as it is;
    only a second path into the same label adds.  So a map of one step does
    no polynomial arithmetic, and entries may be shared objects (the
    coefficient polynomials, one zero): no entry is changed in place, and
    callers must not change them either.
    """
    _check_map_degrees(alg, d, power)
    if len(L.coefficients) != len(alg.variables):
        raise ValueError("linear form arity does not match the algebra")
    symbols = L.symbol_names()
    coeff_polys = []
    for c in L.coefficients:
        if isinstance(c, str):
            coeff_polys.append(SparsePoly.variable(symbols, c))
        else:
            coeff_polys.append(SparsePoly.constant(symbols, c))
    rows = list(alg.basis[d + power])
    cols = list(alg.basis[d])
    row_index = {lab: i for i, lab in enumerate(rows)}
    zero = SparsePoly.zero(symbols)
    unit = SparsePoly.constant(symbols, 1)
    entries = [[zero] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        vec = {col: unit}
        for _ in range(power):
            nxt: dict = {}
            for lab, coeff in vec.items():
                for target, cpoly in zip(alg.times[lab], coeff_polys):
                    if target is None or not cpoly:
                        continue
                    term = cpoly if coeff is unit else coeff * cpoly
                    known = nxt.get(target)
                    nxt[target] = term if known is None else known + term
            vec = {lab: c for lab, c in nxt.items() if c}
        for lab, coeff in vec.items():
            entries[row_index[lab]][j] = coeff
    return Matrix(rows, cols, entries)


class OneStepMap(Matrix):
    """The map by the generic form from degree d to d + 1, as table cells.

    A cell (t, c, i) says that the i-th variable carries column label c to
    row label t, so entry (t, c) is the sum of the variables of its cells.
    rank_at reads the point's values into the cells modulo POINT_PRIME,
    with no polynomial built.  A full rank there is the rank at the point;
    a lower one goes to point_rank, which reads the symbolic entries and
    certifies it as for any map.  Those entries, the map that
    multiplication_matrix builds by LinearForm.symbolic, are built from the
    cells when first read.  The map holds its cells and the variable names,
    not the algebra, which holds its maps.
    """

    def __init__(self, alg: GradedAlgebra, d: int):
        _check_map_degrees(alg, d, 1)
        self.row_labels = list(alg.basis[d + 1])
        self.col_labels = list(alg.basis[d])
        self.names = alg.variables
        row_of = {lab: t for t, lab in enumerate(self.row_labels)}
        times = alg.times
        self.cells = [(row_of[target], c, i)
                      for c, col in enumerate(self.col_labels)
                      for i, target in enumerate(times[col]) if target is not None]
        self._entries = None
        self._generic_rank = None

    @property
    def entries(self) -> list:
        if self._entries is None:
            self._entries = self._symbolic_entries()
        return self._entries

    def _symbolic_entries(self) -> list:
        """Each variable's polynomial where its cell is; only two cells at
        one entry add, as in multiplication_matrix."""
        names = self.names
        zero = SparsePoly.zero(names)
        forms = [SparsePoly.variable(names, v) for v in names]
        entries = [[zero] * self.ncols for _ in self.row_labels]
        for t, c, i in self.cells:
            known = entries[t][c]
            entries[t][c] = forms[i] if known is zero else known + forms[i]
        return entries

    def rank_at(self, assignment) -> int:
        full = min(self.nrows, self.ncols)
        try:
            values = [_mod_p(assignment[v]) for v in self.names]
        except ZeroDivisionError:  # a denominator the prime divides
            return point_rank(self, assignment)
        rows = [[0] * self.ncols for _ in self.row_labels]
        for t, c, i in self.cells:
            rows[t][c] = (rows[t][c] + values[i]) % POINT_PRIME
        if full and _rank_mod_p(rows) == full:
            return full
        return point_rank(self, assignment)


def _path_count_map(alg: GradedAlgebra, d: int, power: int) -> Matrix:
    """M(1) of a monomial algebra: the entry (w', w) counts the words in the
    variables that carry w to w', multinomial(r(w') - r(w)), and is 0 unless
    r(w') >= r(w)."""
    _check_map_degrees(alg, d, power)
    r = alg.exponents
    rows = list(alg.basis[d + power])
    cols = list(alg.basis[d])
    return Matrix(rows, cols, [[_words(r[top], r[bottom]) for bottom in cols] for top in rows])


def _words(top: tuple, bottom: tuple) -> int:
    """multinomial(top - bottom), or 0 unless top >= bottom entrywise."""
    count, total = 1, 0
    for a, b in zip(top, bottom):
        if a < b:
            return 0
        total += a - b
        count *= math.comb(total, a - b)
    return count


def _check_map_degrees(alg, d: int, power: int) -> None:
    """The degree check of a map on either algebra kind, GradedAlgebra or dual view."""
    if power < 1:
        raise DegreeOutOfRange("power must be >= 1")
    if d < 0 or d + power > alg.top_degree:
        raise DegreeOutOfRange(
            f"map from degree {d} by power {power} leaves 0..{alg.top_degree}"
        )


def _same_graded_presentation(quotient: GradedAlgebra, A: GradedAlgebra, S) -> bool:
    """Whether a box quotient is the apery algebra, by the value map.

    The value of a label (an exponent tuple on the generators after the
    first) must carry the quotient's labels onto A's degree by degree, one
    to one.  The map must then commute with the action of each variable
    (each label of degree 1), and every quotient label of positive degree
    must be an image of that action.  Both tables are those of associative
    algebras, so a graded bijection that commutes with the variables of an
    algebra they generate commutes with every product: for y = y'v,
    xy = (xy')v.  The tables are read last, so every label either table is
    asked about is one of its own.
    """
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
    columns = [A.var_labels.index(value[v]) for v in quotient.var_labels]
    images = set()
    for x in value:
        for qp, j in zip(quotient.times[x], columns):
            ap = A.times[value[x]][j]
            if (qp is None) != (ap is None):
                return False
            if qp is not None and value[qp] != ap:
                return False
            images.add(qp)
    return images - {None} == set(value) - set(quotient.basis[0])


def relation_text(p: SparsePoly) -> str:
    """Conventional display for a defining relation: pure power first.

    A binomial like a pure power minus a mixed monomial reads better with
    the pure power leading, so that term is pulled to the front; everything
    else keeps canonical graded-lex order.  Both parts are the terms of p,
    clean already, so they are built as they are.
    """
    pure = [
        (e, c) for e, c in p.terms.items()
        if sum(1 for x in e if x) == 1 and c > 0
    ]
    if len(pure) != 1 or len(p.terms) == 1:
        return str(p)
    (pe, pc) = pure[0]
    rest = SparsePoly._from_clean(p.vars, {e: c for e, c in p.terms.items() if e != pe})
    head = str(SparsePoly._from_clean(p.vars, {pe: pc}))
    tail = str(rest)
    if tail.startswith("-"):
        return f"{head} - {tail[1:]}"
    return f"{head} + {tail}"


@dataclass
class IdealDescription:
    """Generators of a defining ideal plus the structural data behind them;
    the relation text of each generator is rendered once, when it is built."""

    generators: list[SparsePoly]
    degrees: list[int]
    variables: tuple[str, ...]
    data: dict = field(default_factory=dict)
    texts: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.texts = [relation_text(g) for g in self.generators]

    def generator_texts(self) -> list[str]:
        return list(self.texts)


def ci_tilde_ideal(frame: FrameData) -> IdealDescription:
    """The candidate complete-intersection ideal from the gamma frame.

    One generator per variable: the (gamma_i+1)-th pure power, minus the
    double-representation monomial when gamma_i < beta_i.  This generates the
    whole defining ideal exactly in the complete intersection case.  That
    monomial avoids variable i (compute_beta_gamma checks it), so the two
    terms are distinct and clean as built.
    """
    gens = frame.semigroup.generators
    codim = len(gens) - 1
    names = variable_names(codim)
    one = Fraction(1)
    polys = []
    degrees = []
    for j in range(codim):
        exps = [0] * codim
        exps[j] = frame.gamma[j] + 1
        terms = {tuple(exps): one}
        if frame.rho[j]:
            terms[frame.gamma_witness[j + 1][1:]] = -one
        polys.append(SparsePoly._from_clean(names, terms))
        degrees.append(frame.gamma[j] + 1)
    return IdealDescription(
        generators=polys,
        degrees=degrees,
        variables=names,
        data={
            "is_ci": frame.is_ci(),
            "is_monomial_ci": frame.is_monomial_ci(),
            "box_gamma_points": frame.box_gamma_points(),
            "box_gamma_elements": len(set(frame.box_gamma)),
        },
    )


def codim3_defining_ideal(S: NumericalSemigroup, tilde: Optional[IdealDescription] = None) -> IdealDescription:
    """Full defining ideal for 4-generated, order-symmetric, non-CI semigroups.

    Extends the tilde ideal by the two monomials z^h3*y^h2 and z^h3*w^h4,
    where the h exponents come from the double representation
    (gamma_3+1)*g_3 = mu_2*g_2 + mu_4*g_4 and from the gap C between the top
    box element and the top apery element.  ``tilde`` is S's ci_tilde_ideal
    when the caller already has it.
    """
    gens = S.generators
    if len(gens) != 4:
        raise NotApplicable("codimension-3 structure requires 4 minimal generators")
    table = S.apery_table()
    if not table.m_pure_verdict():
        raise NotApplicable("requires an order-symmetric apery set")
    frame = S.frame()
    if frame.is_ci():
        raise NotApplicable("complete intersection: the tilde ideal is already everything")
    if tilde is None:
        tilde = ci_tilde_ideal(frame)
    g2, g3, g4 = gens[1], gens[2], gens[3]
    gamma2, gamma3, gamma4 = frame.gamma
    witness = frame.gamma_witness[2]
    mu2, mu4 = witness[1], witness[3]
    if not (1 <= mu2 <= gamma2 and 1 <= mu4 <= gamma4):
        raise InternalFault(f"exponents {(mu2, mu4)} of the double representation lie outside the gamma box")
    if mu2 + mu4 != gamma3 + 1:
        raise InternalFault(f"exponents {(mu2, mu4)} of the double representation do not sum to gamma_3 + 1")
    omega_d = gamma2 * g2 + gamma3 * g3 + gamma4 * g4
    omega_e = table.elements[-1]
    diff = omega_d - omega_e
    if diff <= 0 or diff % g3:
        raise NotApplicable("top box element does not sit over the apery top by g3 steps")
    C = diff // g3
    order_gap = sum(frame.gamma) - table.socle_degree
    if C != order_gap or C > gamma3:
        raise InternalFault(f"gap C = {C} differs from the order gap {order_gap} or exceeds gamma_3")
    h2 = gamma2 - mu2 + 1
    h3 = gamma3 - C + 1
    h4 = gamma4 - mu4 + 1
    if h3 < 1:
        raise InternalFault(f"exponent h3 = {h3} of the extra generators is below 1")
    names = tilde.variables
    one = Fraction(1)
    extra = [
        SparsePoly._from_clean(names, {(h2, h3, 0): one}),
        SparsePoly._from_clean(names, {(0, h3, h4): one}),
    ]
    data = dict(tilde.data)
    data.update(
        {
            "mu2": mu2,
            "mu4": mu4,
            "C": C,
            "h2": h2,
            "h3": h3,
            "h4": h4,
            "omega_d": omega_d,
            "omega_e": omega_e,
        }
    )
    return IdealDescription(
        generators=tilde.generators + extra,
        degrees=tilde.degrees + [h2 + h3, h3 + h4],
        variables=names,
        data=data,
    )
