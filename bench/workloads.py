"""The four benchmark workloads (BENCHMARK.json lists all but eliminate).

A workload builds its fixed state in `setup()` (timed as set-up) and then
yields *passes*: lists of ops, drawn from the seed.  The harness runs
whole passes, one op at a time in one thread (a closed loop with one
client).  A run of `--seconds` does a fixed number of passes,
seconds / `pass_seconds`, where `pass_seconds` is the workload's pass time
when the benchmark was defined (2-core x86 VM, Python 3.11): a fixed
amount of work keeps the mix of every run the same as the program gets
faster or slower.

Each op has a `run` (timed), a `check` (untimed; it takes an independent
route and returns the canonical text that enters the output digest) and
a deadline.

Why these four:

- certify: the headline user path; thousands of small Groebner bases, so
  per-call overhead in `polyring` dominates.
- eliminate: few large elimination bases in 4-5 variables, where pair
  criteria and the reducer matter; the cusp instance that does not
  finish today is run beside the passes and its status recorded.
- witt: the only user of `wittvec`; universal tables over Z, over F_p as
  the CLI builds it, and over the cusp.
- dieudonne: the only user of `dieudonne` and `modarith`; the checker set
  on A^1 models of three sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from checks import (
    canonical,
    check_char_p_op,
    check_integer_op,
    check_pullback,
    ghost_components,
    replay_certificate,
    require,
)
from wittcert import derham, dieudonne, polyring, vanish, wittvec

# A run must end within minutes whatever the program does; no op reaches
# a deadline today except the named cusp instance, run beside the passes.
DEFAULT_DEADLINE_S = 60.0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]
    deadline_s: float = DEFAULT_DEADLINE_S


def random_poly(rng: random.Random, ring, max_degree: int, max_terms: int):
    """A nonzero random polynomial, drawn as in the acceptance tests."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rng.randint(1, ring.p - 1)
    poly = polyring.Polynomial(ring, terms)
    return poly if not poly.is_zero() else ring.variable(0)


def _basis_json(ideal) -> list:
    return [g.to_json() for g in ideal.basis]


# -- certify ------------------------------------------------------------------


class Certify:
    """Random nonzero ideals through the whole certify path.

    One pass is one ideal for each (p, number of variables) with
    p in {2, 3, 5} and 1-3 variables; each ideal has 1-3 generators of at
    most 3 terms.  Generators have degree <= 4 in one or two variables and
    degree <= 2 in three: degree-4 ideals in three variables take up to
    seconds each, so a handful of them would decide a whole run.
    """

    name = "certify"
    tail_percentile = 95
    pass_seconds = 0.025
    digest_passes = 30
    max_degree = {1: 4, 2: 4, 3: 2}

    def setup(self) -> None:
        ring = polyring.PolyRing(5, ("x", "y"))
        op = self._op("warm-up", ring, [polyring.parse_polynomial("y^2 - x^3", ring)])
        op.check(op.run())

    def passes(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(seed)
        index = 0
        while True:
            batch = []
            for nvars in (1, 2, 3):
                for p in (2, 3, 5):
                    ring = polyring.PolyRing(p, tuple("xyz"[:nvars]))
                    gens = [random_poly(rng, ring, self.max_degree[nvars], 3) for _ in range(rng.randint(1, 3))]
                    batch.append(self._op(f"ideal{index}", ring, gens))
                    index += 1
            yield batch

    @staticmethod
    def _op(label: str, ring, gens) -> Op:
        def run():
            presentation = derham.PresentedRing.make(ring, gens)
            cert = vanish.certify_top_vanishing(presentation)
            doc = json.loads(json.dumps(cert.to_json()))
            replayed = vanish.verify_certificate(vanish.VanishingCertificate.from_json(doc))
            closure = vanish.closure_state(presentation.ideal)
            bound = vanish.vanishing_degree_bound(presentation)
            top = derham.top_form_presentation(presentation)
            return presentation, doc, replayed, closure, bound, top

        def check(out) -> str:
            presentation, doc, replayed, closure, bound, top = out
            require(replayed, "verify_certificate rejected a fresh certificate")
            replay_certificate(doc)
            require(closure.fixpoint and closure.ideal.contains_one(), "closure does not contain 1")
            if presentation.is_unit_ideal():
                require(bound == -1, "unit ideal without the -1 degree bound")
            else:
                require(0 <= bound < ring.nvars, "degree bound out of range for a nonzero ideal")
            for g in presentation.ideal.generators:
                for f in [g] + [g.partial(i) for i in range(ring.nvars)]:
                    require(
                        polyring.normal_form(f, top.jacobian_ideal).is_zero(),
                        "top-form ideal misses a generator or partial",
                    )
            return canonical({
                "certificate": doc,
                "basis": _basis_json(presentation.ideal),
                "closure": _basis_json(closure.ideal),
                "bound": bound,
                "top": _basis_json(top.jacobian_ideal),
            })

        return Op(label, run, check)


# -- eliminate ----------------------------------------------------------------

NAMED_CUSP_TUPLE = ("3*x^2*y + 4*x*y + 4*y^2", "x*y + 4*x", "3*y^3 + 3*x*y + y")
NAMED_DEADLINE_S = 5.0
TUPLE_DEADLINE_S = 10.0
CATALOGUE_SEED = 20240404
CATALOGUE_SIZE = 36
# Draws of the catalogue generator that take over 1.2 s at 3b2ea0f on a
# 2-core x86 VM (three of them over 20 s); the next draws replace them.
SLOW_DRAWS = frozenset({2, 9, 10, 11, 19, 28, 29})


class Eliminate:
    """Tuple certificates (kernel of t_i -> g_i by elimination) on curves.

    A run makes passes over a fixed catalogue of 36 instances: p in
    {2, 3, 5}, the cusp, the node and random plane curves of degree <= 3,
    tuples of 2-3 elements of degree <= 3 with <= 3 terms.  Elimination
    cost is heavy-tailed (1 ms to minutes for look-alike tuples), so the
    catalogue leaves out the draws in SLOW_DRAWS: the slowest instance kept
    takes about 1.1 s, and the 10 s deadline is far above every instance's
    cost, so timed time is the program's and no op is cut.

    Fresh random tuples per seed would let a few draws decide a run.  The
    seed instead applies a random diagonal change of coordinates
    x -> a x, y -> b y, t_i -> c_i t_i (a, b, c_i units): every instance
    changes, its certificate and kernel change, and its Groebner work stays
    step for step the same.

    The cusp instance at p = 5 named in the roadmap is not part of the
    timed passes: `named_op` runs it once per run under a 5 s deadline (the
    roadmap's goal for it), and the run record gives its status.
    """

    name = "eliminate"
    tail_percentile = 70
    pass_seconds = 1.8
    digest_passes = 1

    def setup(self) -> None:
        self.catalogue = self._catalogue()
        ring = polyring.PolyRing(5, ("x", "y"))
        presentation = derham.PresentedRing.make(ring, [polyring.parse_polynomial("y^2 - x^3", ring)])
        op = self._op("warm-up", presentation, [ring.variable(0), ring.variable(1)], TUPLE_DEADLINE_S)
        op.check(op.run())

    @staticmethod
    def _catalogue() -> list:
        rng = random.Random(CATALOGUE_SEED)
        out = []
        index = 0
        while len(out) < CATALOGUE_SIZE:
            p = (2, 3, 5)[index % 3]
            curve = ("cusp", "node", "plane")[index // 3 % 3]
            size = 2 + index // 9 % 2
            ring = polyring.PolyRing(p, ("x", "y"))
            if curve == "cusp":
                relation = polyring.parse_polynomial("y^2 - x^3", ring)
            elif curve == "node":
                relation = polyring.parse_polynomial("x*y", ring)
            else:
                relation = random_poly(rng, ring, 3, 3)
                while relation.is_constant():
                    relation = random_poly(rng, ring, 3, 3)
            elements = [random_poly(rng, ring, 3, 3) for _ in range(size)]
            if index not in SLOW_DRAWS:
                out.append((f"{curve}-p{p}-n{size}-{index}", ring, relation, elements))
            index += 1
        return out

    @classmethod
    def named_op(cls) -> Op:
        ring = polyring.PolyRing(5, ("x", "y"))
        cusp = derham.PresentedRing.make(ring, [polyring.parse_polynomial("y^2 - x^3", ring)])
        named = [polyring.parse_polynomial(t, ring) for t in NAMED_CUSP_TUPLE]
        return cls._op("named-cusp-p5", cusp, named, NAMED_DEADLINE_S)

    def passes(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(seed)
        while True:
            batch = []
            for label, ring, relation, elements in self.catalogue:
                p = ring.p
                a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
                scale = {0: ring.constant(a) * ring.variable(0), 1: ring.constant(b) * ring.variable(1)}
                presentation = derham.PresentedRing.make(ring, [relation.substitute(scale)])
                tup = [g.substitute(scale).scale(rng.randint(1, p - 1)) for g in elements]
                batch.append(self._op(label, presentation, tup, TUPLE_DEADLINE_S))
            yield batch

    @staticmethod
    def _op(label: str, presentation, elements, deadline_s: float) -> Op:
        def run():
            kernel_element, cert = vanish.certify_tuple_vanishing(presentation, elements)
            doc = json.loads(json.dumps(cert.to_json()))
            replayed = vanish.verify_certificate(vanish.VanishingCertificate.from_json(doc))
            return kernel_element, doc, replayed

        def check(out) -> str:
            kernel_element, doc, replayed = out
            require(not kernel_element.is_zero(), "tuple kernel element is zero")
            require(replayed, "verify_certificate rejected a fresh tuple certificate")
            require(kernel_element.to_json() == doc["seed"], "certificate seed is not the kernel element")
            check_pullback(kernel_element, presentation, elements)
            replay_certificate(doc)
            return canonical({"tuple": [g.to_json() for g in elements], "certificate": doc})

        return Op(label, run, check, deadline_s)


# -- witt ---------------------------------------------------------------------


WITT_OPS = (("add", 2), ("mul", 2), ("neg", 1), ("frobenius", 1))
WITT_FUNCS = {"add": wittvec.witt_add, "mul": wittvec.witt_mul, "neg": wittvec.witt_neg,
              "frobenius": wittvec.frobenius}


class Witt:
    """Witt-vector ops over Z, F_p and the cusp for p in {2, 3, 5}, r in {2, 3, 4}.

    F_p is built as the CLI builds it: presented coefficients over the ring
    with no variables.  One pass runs add, mul, neg and the table Frobenius
    for every (p, r, domain), plus `ghost` over Z and the check-frobenius
    identity F([g]) = [g^p] = [g]^p over F_p and the cusp.  Over the cusp
    only p^r <= 27 is run: one addition at (3, 4) takes 0.5-3 s depending
    on the operands, and at (5, 4) longer than a whole run.

    The cost of an op depends on its operands (one addition at (5, 4) over
    F_p takes 0.4-0.9 s by the zero pattern of its coordinates), so fresh
    random operands would let a few draws decide a run.  The operands are
    instead a fixed catalogue, one draw per op, and the seed twists them
    in every pass by a unit u of the domain (and a unit c over the cusp):
    coordinate i becomes u^(p^i) * sigma_c(x_i), where sigma_c is the
    automorphism x -> c^2 x, y -> c^3 y of k[x, y]/(y^2 - x^3).  The table
    polynomials are isobaric, with X_i of weight p^i, so every monomial of
    one output coordinate is scaled by the same unit and the op does the
    same work step for step on new operands.  F_2 has no unit but 1, so at
    p = 2 only the integer operands change with the seed.
    """

    name = "witt"
    tail_percentile = 90
    pass_seconds = 1.0
    digest_passes = 1
    primes = (2, 3, 5)
    levels = (2, 3, 4)
    max_ring_size = 27

    def setup(self) -> None:
        for p in self.primes:
            for r in self.levels:
                wittvec.build_witt_table(p, r)
        self.domains = {}
        for p in self.primes:
            fp = derham.PresentedRing.make(polyring.PolyRing(p, ()), [])
            ring = polyring.PolyRing(p, ("x", "y"))
            cusp = derham.PresentedRing.make(ring, [polyring.parse_polynomial("y^2 - x^3", ring)])
            self.domains[p] = {
                "int": wittvec.IntegerCoefficients(),
                "fp": wittvec.PresentedCoefficients(fp),
                "ring": wittvec.PresentedCoefficients(cusp),
            }
        self.catalogue = self._catalogue()

    def _catalogue(self) -> list:
        """(label, kind, p, r, tag, operands): coordinate lists, or an element for check-frobenius."""
        rng = random.Random(CATALOGUE_SEED)
        out = []
        for p in self.primes:
            for r in self.levels:
                for tag, domain in self.domains[p].items():
                    if tag == "ring" and p ** r > self.max_ring_size:
                        continue
                    for name, arity in WITT_OPS:
                        operands = [[self._element(rng, p, tag, domain) for _ in range(r)] for _ in range(arity)]
                        out.append((f"{name}-{tag}-p{p}-r{r}", name, p, r, tag, operands))
                    if tag == "int":
                        operands = [[self._element(rng, p, tag, domain) for _ in range(r)]]
                        out.append((f"ghost-int-p{p}-r{r}", "ghost", p, r, tag, operands))
                    else:
                        g = self._element(rng, p, tag, domain)
                        out.append((f"check-frobenius-{tag}-p{p}-r{r}", "check-frobenius", p, r, tag, g))
        return out

    def passes(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(seed)
        while True:
            batch = []
            for label, kind, p, r, tag, operands in self.catalogue:
                domain = self.domains[p][tag]
                twist = self._twist(rng, p, tag, domain)
                if kind == "check-frobenius":
                    batch.append(self._frobenius_identity_op(label, domain, p, r, twist(0, operands)))
                    continue
                args = [wittvec.witt_vector(domain, p, [twist(i, x) for i, x in enumerate(coords)])
                        for coords in operands]
                if kind == "ghost":
                    batch.append(self._ghost_op(label, args[0]))
                else:
                    batch.append(self._arith_op(label, kind, WITT_FUNCS[kind], args, tag))
            yield batch

    @staticmethod
    def _element(rng: random.Random, p: int, tag: str, domain):
        if tag == "int":
            return rng.randint(-20, 20)
        if tag == "fp":
            return domain.from_int(rng.randint(0, p - 1))
        presentation = domain.presentation
        return presentation.normal(random_poly(rng, presentation.ring, 3, 2))

    @staticmethod
    def _twist(rng: random.Random, p: int, tag: str, domain):
        """The map (i, x_i) -> u^(p^i) * sigma_c(x_i) for one op, u and c drawn from the seed."""
        if tag == "int":
            u = rng.choice((1, -1))
            return lambda i, x: u ** (p ** i) * x
        u = rng.randint(1, p - 1)  # u^(p^i) = u in F_p
        if tag == "fp":
            return lambda i, x: x.scale(u)
        c = rng.randint(1, p - 1)
        ring = domain.presentation.ring
        sigma = {0: ring.constant(c ** 2) * ring.variable(0), 1: ring.constant(c ** 3) * ring.variable(1)}
        return lambda i, x: domain.presentation.normal(x.substitute(sigma).scale(u))

    @staticmethod
    def _arith_op(label: str, name: str, func, args, tag: str) -> Op:
        def run():
            return func(*args)

        def check(result) -> str:
            p = result.p
            if tag == "int":
                check_integer_op(name, p, [a.coords for a in args], result.coords)
            else:
                check_char_p_op(name, p, args, result)
            return canonical(wittvec.witt_to_json(result))

        return Op(label, run, check)

    @staticmethod
    def _ghost_op(label: str, x) -> Op:
        def run():
            return wittvec.ghost(x)

        def check(values) -> str:
            require(tuple(values) == ghost_components(x.p, x.coords), "ghost map disagrees")
            return canonical(list(values))

        return Op(label, run, check)

    @staticmethod
    def _frobenius_identity_op(label: str, domain, p: int, r: int, g) -> Op:
        """The CLI's check-frobenius: F([g]) == [g^p] == [g]^p."""
        presentation = domain.presentation

        def run():
            lift = wittvec.teichmuller(domain, g, r, p=p)
            f_of_lift = wittvec.frobenius(lift)
            lift_of_power = wittvec.teichmuller(domain, presentation.normal(g ** p), r - 1, p=p)
            power = wittvec.witt_one(domain, p, r)
            for _ in range(p):
                power = wittvec.witt_mul(power, lift)
            truncated = wittvec.WittVector(p, r - 1, domain, power.coords[: r - 1])
            return f_of_lift, lift_of_power, truncated

        def check(out) -> str:
            f_of_lift, lift_of_power, truncated = out
            require(f_of_lift == lift_of_power == truncated, "F([g]) = [g^p] = [g]^p fails")
            return canonical(wittvec.witt_to_json(f_of_lift))

        return Op(label, run, check)


# -- dieudonne ----------------------------------------------------------------


class Dieudonne:
    """The acceptance checker set on A^1 models, one checker call per op.

    Models a1(2, 4, 4), a1(3, 1, 4) and a1(2, 8, 4) (129, 163 and 257
    basis elements): the per-call block scans grow with basis size, so
    small and larger models are both kept.  The checker set is criterion
    5's: axioms, saturation, cancellation and the W_r / cohomology
    comparison in degrees 0 and 1 for r in {1, 3}, propagation,
    injectivity.  A pass is short (about 2 s), so that each call's latency
    is the median of several timings in a run.  Inputs are the fixed
    models, so the seed does not change this workload's work; it only
    orders the calls within each pass.
    """

    name = "dieudonne"
    tail_percentile = 69
    pass_seconds = 2.0
    digest_passes = 1
    models = ((2, 4, 4), (3, 1, 4), (2, 8, 4))

    def setup(self) -> None:
        self.built = [dieudonne.a1_model(p, wmax, exponent) for p, wmax, exponent in self.models]

    def passes(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(seed)
        calls = []
        for (p, wmax, exponent), model in zip(self.models, self.built):
            tag = f"a1({p},{wmax},{exponent})"
            calls.append((f"{tag} axioms", dieudonne.check_axioms, (model,)))
            calls.append((f"{tag} saturation", dieudonne.saturation_witness, (model,)))
            for r in (1, 3):
                calls.append((f"{tag} cancellation r={r}", dieudonne.f_cancellation_check, (model, r)))
                for degree in (0, 1):
                    calls.append((f"{tag} compare d={degree} r={r}",
                                  dieudonne.compare_wr_with_cohomology, (model, degree, r)))
            for degree in (0, 1):
                calls.append((f"{tag} propagation d={degree}",
                              dieudonne.w1_vanishing_propagation_check, (model, degree, 3)))
            calls.append((f"{tag} injectivity", dieudonne.frobenius_injectivity_degree0_check, (model,)))
        while True:
            order = calls[:]
            rng.shuffle(order)
            yield [report_op(label, func, args) for label, func, args in order]


def report_op(label: str, func, args) -> Op:
    """One checker call; its report must pass."""
    def run():
        return func(*args)

    def check(report) -> str:
        require(report.passed, f"{report.name} reports violations")
        return canonical(report.to_json())

    return Op(label, run, check)


WORKLOADS = {w.name: w for w in (Certify, Eliminate, Witt, Dieudonne)}
