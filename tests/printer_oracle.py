"""The polynomial printer as it read its coefficients through Fraction
arithmetic: abs, comparison with 1 and 0, and str of the magnitude."""


def text(poly) -> str:
    if not poly.terms:
        return "0"
    pieces = []
    for exps, coeff in poly.sorted_terms():
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(poly.vars, exps) if e)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
