"""Output checks that take a different route from the code under test.

Every op's output is checked outside the timed region:

- descent certificates are replayed from their JSON: the step equations
  are recomputed here on plain term dictionaries, and seed membership is
  tested against a Groebner basis rebuilt from the certificate's ring;
- a tuple kernel element is pulled back along t_i -> g_i and must reduce
  to zero in the source ring;
- integer Witt results are compared with the ghost map, computed here;
- characteristic-p Witt results over F_p and the cusp are embedded in
  W(F_p[t]) (the cusp by x -> t^2, y -> t^3) and compared with the op
  on lifts to Z[t], done on ghost components and reduced mod p.
"""

from __future__ import annotations

import json

from wittcert import derham, polyring


class CheckFailed(Exception):
    """An op produced an output that its independent check rejects."""


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# -- descent certificates -------------------------------------------------


def _terms(doc, p: int) -> dict:
    out: dict = {}
    for t in doc["terms"]:
        exp = tuple(int(e) for e in t["exp"])
        out[exp] = (out.get(exp, 0) + int(t["coef"])) % p
    return {e: c for e, c in out.items() if c}


def _degree(terms: dict) -> int:
    return max((sum(e) for e in terms), default=-1)


def _partial(terms: dict, i: int, p: int) -> dict:
    out: dict = {}
    for exp, c in terms.items():
        if exp[i]:
            e = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            out[e] = (out.get(e, 0) + c * exp[i]) % p
    return {e: c for e, c in out.items() if c}


def _pth_power(terms: dict, p: int) -> dict:
    # (sum c m)^p = sum c^p m^p = sum c m^p over F_p.
    return {tuple(x * p for x in exp): c for exp, c in terms.items()}


def replay_certificate(doc: dict) -> None:
    """Replay a certificate document; raise CheckFailed on any defect."""
    p = int(doc["ring"]["p"])
    presentation = derham.PresentedRing.from_json(doc["ring"])
    ring = presentation.ring
    seed = _terms(doc["seed"], p)
    require(bool(seed), "certificate seed is zero")
    member = polyring.normal_form(polyring.Polynomial(ring, seed), presentation.ideal)
    require(member.is_zero(), "certificate seed is not in the ideal")
    current = seed
    for step in doc["steps"]:
        before, after = _terms(step["in"], p), _terms(step["out"], p)
        require(before == current, "certificate chain is broken")
        require(_degree(after) < _degree(before), "certificate step does not drop the degree")
        if step["op"] == "partial":
            var = int(step["var"])
            require(0 <= var < ring.nvars, "certificate step names no variable")
            require(bool(after) and after == _partial(before, var, p), "forged partial step")
        else:
            require(step["op"] == "pthRoot", f"unknown certificate step {step['op']!r}")
            require(_pth_power(after, p) == before, "forged p-th root step")
        current = after
    require(_degree(current) == 0, "certificate does not end in a nonzero constant")
    value = current[(0,) * ring.nvars]
    require(value == int(doc["terminal"]) % p, "certificate terminal does not match the chain")


def check_pullback(kernel_element, presentation, elements) -> None:
    """kernel_element(g_1..g_n) must vanish in the source ring."""
    ring = presentation.ring
    total = ring.zero()
    for exp, c in kernel_element.terms.items():
        term = ring.constant(c)
        for g, e in zip(elements, exp):
            if e:
                term = term * g ** e
        total = total + term
    require(presentation.normal(total).is_zero(), "tuple kernel element does not pull back to zero")


# -- Witt vectors -----------------------------------------------------------


def ghost_components(p: int, coords) -> tuple:
    return tuple(
        sum(p ** j * coords[j] ** (p ** (i - j)) for j in range(i + 1)) for i in range(len(coords))
    )


def check_integer_op(op: str, p: int, args, result) -> None:
    """Compare an integer Witt result with the ghost map."""
    gx = ghost_components(p, args[0])
    got = ghost_components(p, result)
    if op == "add":
        gy = ghost_components(p, args[1])
        want = tuple(a + b for a, b in zip(gx, gy))
    elif op == "mul":
        gy = ghost_components(p, args[1])
        want = tuple(a * b for a, b in zip(gx, gy))
    elif op == "neg":
        want = tuple(-a for a in gx)
    elif op == "frobenius":
        want = gx[1:]
    else:
        raise ValueError(op)
    require(got == want, f"integer Witt {op} disagrees with the ghost map")


# Characteristic-p results are checked in Z[t], as dense coefficient lists.


def _t_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _t_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _t_pow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _t_mul(out, a)
    return out


def _t_scale(a: list, k: int) -> list:
    return [k * c for c in a]


def _t_sum(polys) -> list:
    out = [0]
    for a in polys:
        out = _t_add(out, a)
    return out


def _t_mod(a: list, p: int) -> tuple:
    out = [c % p for c in a]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _t_image(poly) -> list:
    """The image of a coordinate in Z[t] with coefficients in [0, p).

    F_p is the ring with no variables.  The cusp k[x,y]/(y^2 - x^3) maps
    by x -> t^2, y -> t^3, which embeds it in k[t]: the image does not
    depend on the representative, and it separates classes.
    """
    p = poly.ring.p
    nvars = poly.ring.nvars
    if nvars not in (0, 2):
        raise ValueError("only F_p and the cusp are checked")
    out = [0]
    for exp, c in poly.terms.items():
        degree = 2 * exp[0] + 3 * exp[1] if nvars else 0
        if degree >= len(out):
            out.extend([0] * (degree + 1 - len(out)))
        out[degree] += c % p
    return out


def _t_ghost(p: int, coords: list) -> list:
    return [
        _t_sum(_t_scale(_t_pow(coords[j], p ** (i - j)), p ** j) for j in range(i + 1))
        for i in range(len(coords))
    ]


def _t_unghost(p: int, ghosts: list) -> list:
    """The Witt coordinates over Z[t] with the given ghost components.

    x_n = (w_n - sum_{j<n} p^j x_j^(p^(n-j))) / p^n, an exact division
    when the ghost components come from Witt vectors over Z[t].
    """
    coords = []
    for n, w in enumerate(ghosts):
        rest = _t_add(w, _t_scale(_t_sum(
            _t_scale(_t_pow(coords[j], p ** (n - j)), p ** j) for j in range(n)
        ), -1))
        require(all(c % p ** n == 0 for c in rest), "ghost components are not integral")
        coords.append([c // p ** n for c in rest])
    return coords


def check_char_p_op(op: str, p: int, args, result) -> None:
    """Check a Witt result over F_p or the cusp against the op on lifts to Z[t].

    Each operand's coordinates are lifted to Z[t] (F_p as constants, the
    cusp through x -> t^2, y -> t^3), the op is done on ghost components
    and inverted back to Witt coordinates over Z[t], and the reduction mod p
    must equal the result's image.  The Witt polynomials have integer
    coefficients, so the reduction of the integer op is the op in
    characteristic p.
    """
    ghosts = [_t_ghost(p, [_t_image(c) for c in vec.coords]) for vec in args]
    if op == "add":
        want = [_t_add(a, b) for a, b in zip(*ghosts)]
    elif op == "mul":
        want = [_t_mul(a, b) for a, b in zip(*ghosts)]
    elif op == "neg":
        want = [_t_scale(a, -1) for a in ghosts[0]]
    elif op == "frobenius":
        want = ghosts[0][1:]
    else:
        raise ValueError(op)
    expected = [_t_mod(c, p) for c in _t_unghost(p, want)]
    got = [_t_mod(_t_image(c), p) for c in result.coords]
    require(got == expected, f"Witt {op} in characteristic p disagrees with the op on lifts to Z[t]")
