"""Cable transforms of knot invariants and rational-concordance obstructions.

A (p,1)-cable leaves the Alexander polynomial and the signature function
almost untouched: delta goes to delta(t^p) and the signature step function
pulls back along omega -> omega^p.  Those two transforms power three
obstruction procedures for the question "can K be rationally concordant
to K(p,1)?":

* a search for a root of unity omega with sigma(omega) = 0 but
  sigma(omega^p) != 0, which rules out topological rational concordance
  for knots of finite algebraic order;
* the Fox-Milnor norm condition on delta_0(t^k) * delta_1(t^k), checked
  for every complexity k up to a bound;
* a tau comparison, which obstructs smooth rational concordance even
  between topologically slice knots.

Knots enter as profiles: the computable data (Seifert matrix, Alexander
polynomial) plus declared literature values (tau, s, genus bounds,
topological sliceness), each carrying its citation.  Reports carry typed
witnesses that can be re-verified independently: a root of unity with its
two signature values, a violating irreducible factor, or a tau mismatch.
"""

from __future__ import annotations

import functools

from .laurent import FoxMilnorResult, LaurentPoly, Record, factor, fox_milnor_pairing, is_int
from .seifert import (
    SeifertMatrix,
    SignatureFunction,
    alexander,
    balanced_alexander,
    first_witness,
    signature_function,
)

__all__ = [
    "Cited", "CitedBounds", "HypothesisNotMet", "KnotProfile", "MissingAlexander",
    "MissingSeifert", "MissingTau", "ObstructionReport", "Witness", "cable_profile",
    "cable_signature", "finite_order_obstruction", "fox_milnor_obstruction",
    "profile_signature", "rational_concordance_verdict", "tau_cable_rule",
]


class MissingSeifert(ValueError):
    """The operation needs a Seifert matrix the profile does not have."""


class MissingAlexander(ValueError):
    """The operation needs an Alexander polynomial the profile does not have."""


class MissingTau(ValueError):
    """The operation needs a declared tau value the profile does not have."""


class HypothesisNotMet(ValueError):
    """A theorem's hypothesis fails for the supplied data (exit code 3)."""


TAU_CABLE_CITATION = (
    "tau(K(p,1)) = p*tau(K): Hedden, 'On knot Floer homology and cabling', "
    "Theorem 1.2"
)
TRIVIAL_ALEXANDER_CITATION = (
    "trivial Alexander polynomial implies topologically slice: "
    "Freedman and Quinn, 'Topology of 4-Manifolds'"
)
# the default search bounds of the obstructions and of their subcommands
K_MAX = 6
DENOMINATOR_BOUND = 211
# (delta_0, delta_1, k) kept by ``_pairing_at``; a cable-obstruct run asks
# about 100 distinct ones, and one fox-milnor call asks each k once
FOX_MILNOR_CACHE_SIZE = 256

ALL_K_IRREDUCIBILITY_CITATION = (
    "irreducibility of delta(t^k) for every k >= 1 for twist-knot "
    "polynomials: Cha, 'The structure of the rational concordance group "
    "of knots', Mem. Amer. Math. Soc. 189 (2007), Prop. 3.18"
)


class Cited(Record):
    """A declared value paired with the literature reference backing it."""

    value: object
    citation: str

    def __post_init__(self):
        if not isinstance(self.citation, str) or not self.citation.strip():
            raise ValueError("a declared value must carry a citation")


class CitedBounds(Record):
    """Declared integer bounds (either side optional) with their citation."""

    lower: int | None
    upper: int | None
    citation: str

    def __post_init__(self):
        if not isinstance(self.citation, str) or not self.citation.strip():
            raise ValueError("declared bounds must carry a citation")
        if self.lower is None and self.upper is None:
            raise ValueError("bounds need at least one side")
        for side in (self.lower, self.upper):
            if side is not None and (not is_int(side) or side < 0):
                raise ValueError("genus bounds must be nonnegative integers")
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("lower bound exceeds upper bound")


class KnotProfile(Record):
    """A knot's computable data plus cited literature values.

    The Alexander polynomial is computed from the Seifert matrix when one
    is present (a declared polynomial is then cross-checked against it);
    otherwise it may be declared directly, as happens for cables.  Either
    way it passes :func:`seifert.balanced_alexander` and is stored
    balanced, so a declared polynomial that is no knot's is rejected.  Profiles
    built by :func:`cable_profile` remember their companion in ``cable_of``
    so the signature function can be obtained by pullback even though no
    Seifert matrix for the cable is stored.
    """

    name: str
    seifert: SeifertMatrix | None = None
    alexander: LaurentPoly | None = None
    declared_tau: Cited | None = None
    declared_s: Cited | None = None
    declared_genus: Cited | None = None
    declared_slice_genus: CitedBounds | None = None
    topologically_slice: Cited | None = None
    cable_of: tuple["KnotProfile", int] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("a profile needs a nonempty name")
        if self.alexander is not None:
            try:
                declared = balanced_alexander(self.alexander)
            except ValueError as exc:
                raise ValueError(
                    f"declared polynomial {self.alexander} of {self.name!r} is "
                    f"not an Alexander polynomial: {exc}"
                ) from None
            # store the balanced normal form so downstream code can rely on it
            object.__setattr__(self, "alexander", declared)
        if self.seifert is not None:
            computed = alexander(self.seifert)
            if self.alexander is not None and self.alexander != computed:
                raise ValueError(
                    f"declared Alexander polynomial of {self.name!r} does not "
                    f"match the Seifert matrix (expected {computed})"
                )
            object.__setattr__(self, "alexander", computed)
        if self.declared_genus is not None:
            g = self.declared_genus.value
            if not is_int(g) or g < 0:
                raise ValueError("declared genus must be a nonnegative integer")
        if self.declared_tau is not None and not is_int(self.declared_tau.value):
            raise ValueError("declared tau must be an integer")
        if self.declared_s is not None and not is_int(self.declared_s.value):
            raise ValueError("declared s must be an integer")
        self._check_bounds()
        if self.cable_of is not None:
            base, p = self.cable_of
            if not isinstance(base, KnotProfile) or not is_int(p) or p < 1:
                raise ValueError("cable_of must be (profile, positive integer)")

    def _check_bounds(self):
        """|tau| <= g4 <= g (Ozsvath-Szabo), |s| <= 2 g4 and s even
        (Rasmussen), with g4 read as its declared upper bound; neither
        side of the declared slice genus may exceed the genus."""
        tau, s = self.declared_tau, self.declared_s
        g = None if self.declared_genus is None else self.declared_genus.value
        bounds = self.declared_slice_genus
        g4 = None if bounds is None else bounds.upper
        if bounds is not None and g is not None:
            for side, kind in ((g4, "bound"), (bounds.lower, "lower bound")):
                if side is not None and side > g:
                    raise ValueError(f"{self.name!r}: slice genus {kind} {side} exceeds genus {g}")
        for bound, kind in ((g4, "slice genus bound"), (g, "genus")):
            if bound is None:
                continue
            if tau is not None and abs(tau.value) > bound:
                raise ValueError(f"{self.name!r}: |tau| = {abs(tau.value)} exceeds {kind} {bound}")
            if s is not None and abs(s.value) > 2 * bound:
                raise ValueError(
                    f"{self.name!r}: |s| = {abs(s.value)} exceeds twice the {kind} {bound}")
        if s is not None and s.value % 2:
            raise ValueError(f"{self.name!r}: s = {s.value} is odd, and s is even (Rasmussen)")


class Witness(Record):
    """One independently checkable piece of evidence inside a report."""

    kind: str
    data: dict


class ObstructionReport(Record):
    """Outcome of an obstruction procedure.

    ``verdict`` is one of ``obstructed``, ``obstructed-up-to-complexity-k``
    (the Fox-Milnor search is existential in k, so a bounded search can
    only exclude bounded complexities), ``consistent-up-to-bounds``, or
    ``no-obstruction-found``.  ``category`` records which kind of
    concordance the evidence obstructs: ``smooth`` (tau), ``topological``
    (signatures, Fox-Milnor), or None when nothing was obstructed.
    """

    verdict: str
    category: str | None
    witnesses: tuple
    parameters: dict
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict.startswith("obstructed") and not self.witnesses:
            raise ValueError("an obstructed verdict needs at least one witness")


def cable_signature(sig: SignatureFunction, p: int) -> SignatureFunction:
    """Signature function of the (p,1)-cable: the pullback along omega^p,
    sigma_cable(omega) = sigma(omega^p) (Litherland, 'Signatures of
    iterated torus knots', 1979); see SignatureFunction.pullback."""
    return sig.pullback(p)


def profile_signature(K: KnotProfile) -> SignatureFunction:
    """Signature function of a profile, through the cable pullback if needed."""
    if K.seifert is not None:
        return signature_function(K.seifert)
    if K.cable_of is not None:
        base, p = K.cable_of
        return cable_signature(profile_signature(base), p)
    raise MissingSeifert(
        f"{K.name!r} has no Seifert matrix and is not a cable of a profile "
        "that has one"
    )


def cable_profile(K: KnotProfile, p: int) -> KnotProfile:
    """Profile of the (p,1)-cable of K: the one rule for what it holds.

    It carries delta(t^p) and a back reference for signature pullbacks.
    Topological sliceness is propagated only through the one rule that
    needs no further input: a trivial Alexander polynomial is
    topologically slice.  tau(K(p,1)) = p*tau(K), its citation chained
    onto the base value's, is carried only when K declares tau = g or
    p = 1: by Hom's cabling formula (2014) the rule holds when epsilon(K)
    is 1, which tau = g > 0 forces, or 0, but when epsilon(K) = -1 the
    cable has tau = p*tau(K) + p - 1.
    """
    if not is_int(p) or p < 1:
        raise ValueError("cable parameter p must be a positive integer")
    delta = None if K.alexander is None else K.alexander.substitute_power(p)
    slice_note = None
    if delta == LaurentPoly.one():
        slice_note = Cited(True, TRIVIAL_ALEXANDER_CITATION)
    base, genus, tau = K.declared_tau, K.declared_genus, None
    if base is not None and (p == 1 or genus is not None and base.value == genus.value):
        tau = Cited(p * base.value, f"{TAU_CABLE_CITATION}; base value: {base.citation}")
    return KnotProfile(
        name=f"{K.name}({p},1)",
        alexander=delta,
        declared_tau=tau,
        topologically_slice=slice_note,
        cable_of=(K, p),
    )


def tau_cable_rule(K: KnotProfile, p: int) -> KnotProfile:
    """:func:`cable_profile` for a K that declares tau; the cable carries
    tau only where that function's rule applies."""
    if K.declared_tau is None:
        raise MissingTau(f"{K.name!r} declares no tau value")
    return cable_profile(K, p)


def finite_order_obstruction(
    K: KnotProfile, p: int, denominator_bound: int = DENOMINATOR_BOUND
) -> ObstructionReport:
    """Search for omega with sigma(omega) = 0 but sigma(omega^p) != 0.

    Such an omega shows K is not rationally concordant to K(p,1) in the
    topological category, because rational concordance forces the two
    signature functions to agree away from jumps.  Whether one exists is
    decided exactly, on the arcs between the jumps of sigma and of its
    pullback; the reported witness is the first omega = exp(2 pi i a/b)
    with b prime up to ``denominator_bound``, in increasing b then
    increasing a, off the jumps of both functions.

    The search needs no skip for b dividing p: there omega^p = 1, so
    delta(t^p) is delta(1) = +-1 at omega, omega is no jump of the
    pullback, and it lies on the pullback arc whose image holds 1, where
    the value is sigma's next to 1, namely 0.  So no such omega lies
    inside a sub-arc where the cable's value is nonzero.
    """
    if not is_int(p) or p < 2:
        raise ValueError("the cable obstruction needs an integer p >= 2")
    if not is_int(denominator_bound) or denominator_bound < 2:
        raise ValueError("denominator_bound must be an integer >= 2")
    sig = profile_signature(K)
    if sig.is_identically_zero():
        exists, found = False, None  # the pullback of zero is zero
    else:
        exists, found = first_witness(
            sig,
            cable_signature(sig, p),
            lambda value, power_value: value == 0 and power_value != 0,
            denominator_bound,
        )
    verdict, category, witnesses = "no-obstruction-found", None, ()
    if found is not None:
        omega, _, power_value = found
        verdict, category = "obstructed", "topological"
        witnesses = (
            Witness(
                "signature-at-root-of-unity",
                {
                    "omega": omega,
                    "p": p,
                    "sigma_at_omega": 0,
                    "sigma_at_omega_power": power_value,
                },
            ),
        )
        note = (
            "sigma(omega) = 0 with sigma(omega^p) != 0 rules out "
            f"topological rational concordance of {K.name!r} to its "
            f"({p},1)-cable"
        )
    elif exists:
        note = (
            "an obstruction exists, but its smallest witness has "
            f"b > {denominator_bound}: on some arc sigma(omega) = 0 and "
            "sigma(omega^p) != 0"
        )
    else:
        note = (
            "no bad arc: sigma(omega^p) = 0 wherever sigma(omega) = 0, so "
            "no root of unity of any order is a witness"
        )
    return ObstructionReport(
        verdict=verdict,
        category=category,
        witnesses=witnesses,
        parameters={"p": p, "denominator_bound": denominator_bound, "knot": K.name},
        notes=(note,),
    )


def fox_milnor_obstruction(
    K0: KnotProfile, K1: KnotProfile, k_max: int = K_MAX
) -> ObstructionReport:
    """Norm test on delta_0(t^k) * delta_1(t^k) for each k up to k_max.

    Rational concordance of complexity k forces the product to be a norm
    f(t) * f(1/t) up to units.  Some k passing is therefore consistency,
    not proof; every k failing excludes rational concordance of every
    complexity up to k_max, and only up to k_max, since the underlying
    condition is existential in k.

    Each pairing at k depends on delta_0 and delta_1 alone, not on the
    profiles' names or order, so it is decided once per process for each
    (delta_0, delta_1, k), with the pair in one fixed order, in an LRU of
    ``FOX_MILNOR_CACHE_SIZE`` entries (``_pairing_at``): a repeated
    query, a renamed profile or the swapped pair is one lookup per k.  On
    a miss the product is factored by its parts, the merged factorization
    must multiply back to it, and the norm witness is checked.  Each
    primitive part, root and irreducible q(t^j) is factored once per
    process, in LRUs of ``laurent.FACTOR_CACHE_SIZE`` and
    ``intfactor.FACTORS_AT_CACHE_SIZE`` entries, so a (p,1)-cable's
    delta_0(t^(p*k)) reuses the entry of delta_0 at p*k.  Each violation
    witness names a factor and the rule broken
    (``FoxMilnorResult.reason``); the content rule holds, as an Alexander
    polynomial's content divides delta(1) = +-1 and, by Gauss's lemma,
    so does the product's.
    """
    if not is_int(k_max) or k_max < 1:
        raise ValueError("k_max must be a positive integer")
    for K in (K0, K1):
        if K.alexander is None:
            raise MissingAlexander(f"{K.name!r} has no Alexander polynomial")
    pair = sorted((K0.alexander, K1.alexander), key=lambda delta: (delta.low(), delta.coeffs))
    witnesses = []
    for k in range(1, k_max + 1):
        result = _pairing_at(*pair, k)
        if result.is_norm:
            verdict, category = "consistent-up-to-bounds", None
            witnesses = [Witness("fox-milnor-norm", {"k": k, "f": result.witness})]
            note = (
                f"delta_0(t^k) * delta_1(t^k) is a norm at k = {k}; this "
                "is consistent with rational concordance, not a proof"
            )
            break
        detail = {"factor": result.violating_factor, "multiplicity": result.violating_multiplicity}
        witnesses.append(
            Witness("fox-milnor-violation", {"k": k, **detail, "reason": result.reason})
        )
    else:
        verdict, category = f"obstructed-up-to-complexity-{k_max}", "topological"
        note = (
            f"every complexity k <= {k_max} fails the norm condition; "
            "complexities beyond the bound need an all-k argument, "
            "e.g. " + ALL_K_IRREDUCIBILITY_CITATION
        )
    return ObstructionReport(
        verdict=verdict,
        category=category,
        witnesses=tuple(witnesses),
        parameters={"k_max": k_max, "knots": (K0.name, K1.name)},
        notes=(note,),
    )


@functools.lru_cache(maxsize=FOX_MILNOR_CACHE_SIZE)
def _pairing_at(delta_0: LaurentPoly, delta_1: LaurentPoly, k: int) -> FoxMilnorResult:
    """The Fox-Milnor pairing of delta_0(t^k) * delta_1(t^k), decided on
    the product of the two factorizations."""
    d0 = delta_0.substitute_power(k)
    d1 = delta_1.substitute_power(k)
    return fox_milnor_pairing(d0 * d1, factor(d0) * factor(d1))


def rational_concordance_verdict(
    K0: KnotProfile,
    K1: KnotProfile,
    k_max: int = K_MAX,
    denominator_bound: int = DENOMINATOR_BOUND,
) -> ObstructionReport:
    """Aggregate every applicable obstruction to rational concordance.

    Smooth-category evidence is the tau comparison; topological-category
    evidence is the signature comparison and the Fox-Milnor test.  A hard
    witness (tau mismatch or signature mismatch) yields ``obstructed``;
    failing Fox-Milnor at every k <= k_max alone yields the bounded
    verdict; otherwise ``no-obstruction-found``.  Missing data silently
    shrinks the evidence set, recorded in the notes.  The verdict is
    symmetric in the argument order.
    """
    if not is_int(k_max) or k_max < 1:
        raise ValueError("k_max must be a positive integer")
    if not is_int(denominator_bound) or denominator_bound < 2:
        raise ValueError("denominator_bound must be an integer >= 2")
    witnesses: list[Witness] = []
    notes: list[str] = []
    category = None

    if K0.declared_tau is not None and K1.declared_tau is not None:
        t0, t1 = K0.declared_tau.value, K1.declared_tau.value
        if t0 != t1:
            witnesses.append(
                Witness(
                    "tau-mismatch",
                    {
                        "tau_0": t0,
                        "tau_1": t1,
                        "citations": (
                            K0.declared_tau.citation,
                            K1.declared_tau.citation,
                        ),
                    },
                )
            )
            category = "smooth"
            notes.append(
                "tau is a smooth rational concordance invariant; "
                f"{t0} != {t1} obstructs smooth rational concordance"
            )
    else:
        notes.append("tau comparison unavailable: not declared for both knots")

    try:
        sig0 = profile_signature(K0)
        sig1 = profile_signature(K1)
    except MissingSeifert as missing:
        notes.append(f"signature comparison unavailable: {missing}")
    else:
        differ, found = first_witness(
            sig0, sig1, lambda v0, v1: v0 != v1, denominator_bound
        )
        if found is not None:
            omega, v0, v1 = found
            witnesses.append(
                Witness(
                    "signature-mismatch",
                    {"omega": omega, "sigma_0": v0, "sigma_1": v1},
                )
            )
            category = "topological"
            notes.append(
                "the signature functions differ away from jumps, which "
                "obstructs topological rational concordance"
            )
        elif differ:
            notes.append(
                "the signature functions differ on some arc, but the smallest "
                f"witness has b > {denominator_bound}"
            )

    fox_milnor = None
    if K0.alexander is not None and K1.alexander is not None:
        fox_milnor = fox_milnor_obstruction(K0, K1, k_max=k_max)
        if fox_milnor.verdict == "consistent-up-to-bounds":
            notes.extend(fox_milnor.notes)
    else:
        notes.append("Fox-Milnor test unavailable: missing Alexander polynomial")

    if K0.topologically_slice is not None and K1.topologically_slice is not None:
        if K0.topologically_slice.value and K1.topologically_slice.value:
            notes.append(
                "both knots are topologically slice "
                f"({K0.topologically_slice.citation}; "
                f"{K1.topologically_slice.citation})"
            )

    if witnesses:
        verdict = "obstructed"
    elif fox_milnor is not None and fox_milnor.verdict.startswith("obstructed"):
        verdict, category = fox_milnor.verdict, fox_milnor.category
        witnesses.extend(fox_milnor.witnesses)
        notes.extend(fox_milnor.notes)
    else:
        verdict = "no-obstruction-found"
    return ObstructionReport(
        verdict=verdict,
        category=category,
        witnesses=tuple(witnesses),
        parameters={
            "knots": (K0.name, K1.name),
            "k_max": k_max,
            "denominator_bound": denominator_bound,
        },
        notes=tuple(notes),
    )
