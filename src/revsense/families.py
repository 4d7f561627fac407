"""String families with extremal reversal behaviour, their closed-form
measure predictions, and closed-form transform strings.

Families (addressable by these identifiers from the CLI and harness):

* u_k / u_k_rev          -- k five-symbol blocks b a #_i a &_i over the
                            interleaved order #_1 < &_1 < ... < a < b;
                            BWT runs grow from 3k+1 to 4k+1 under reversal.
* T_p / T_p_rev          -- staircase blocks over {x, a_i, b_i}; the LZ
                            size ratio z(rev)/z approaches 3 from below.
* w_sigma / w_sigma_rev  -- 3*sigma-2 symbols over a_1 < ... < a_sigma;
                            all LZ variants and the lex parse shrink from
                            5*sigma/2-2 to 2*sigma-1 under reversal.
* fib / central          -- Fibonacci words F_k and central words C_k.
* fib_plus               -- F_k with one extra 'a'; 4 BWT runs for even k.
* c_fib / c_fib_rev      -- 'c' prepended to F_k; the lex parse of the
                            reversal has 6 phrases for every odd k >= 9.
* unary_plus             -- a b^(n-1); right-extension count doubles
                            under reversal.
* t55                    -- fixed 55-symbol binary witness with z = 14
                            and z = 6 after reversal.

Every base family has a <name>_rev partner generating the exact
reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .text import Text, reverse

T55 = "abaaababaabababbabaaababaaababaaababaabababaabababababa"


@dataclass(frozen=True)
class Prediction:
    """A closed-form value for (family, measure), tagged with its formula."""

    measure: str
    value: object  # int | Fraction | Text
    formula: str


# ---------------------------------------------------------------------------
# generators

def _u_k_names(k: int) -> dict[int, str]:
    names = {2 * k: "a", 2 * k + 1: "b"}
    for i in range(1, k + 1):
        names[2 * (i - 1)] = f"#_{i}"
        names[2 * i - 1] = f"&_{i}"
    return names


def _gen_u_k(k: int) -> Text:
    a, b = 2 * k, 2 * k + 1
    symbols: list[int] = []
    for i in range(1, k + 1):
        symbols += [b, a, 2 * (i - 1), a, 2 * i - 1]
    return Text(tuple(symbols), _u_k_names(k))


def _t_p_names(p: int) -> dict[int, str]:
    names = {0: "x"}
    for i in range(1, p + 1):
        names[i] = f"a_{i}"
        names[p + i] = f"b_{i}"
    return names


def a_staircase(p: int) -> Text:
    """A_p ... A_1 where A_i = a_i a_(i-1) ... a_1."""
    if p < 1:
        raise ValueError(f"staircase order must be >= 1, got {p}")
    symbols: list[int] = []
    for i in range(p, 0, -1):
        symbols += list(range(i, 0, -1))
    return Text(tuple(symbols), _t_p_names(p))


def b_staircase(p: int) -> Text:
    """B_1 ... B_p where B_i = b_i b_(i-1) ... b_1."""
    if p < 1:
        raise ValueError(f"staircase order must be >= 1, got {p}")
    symbols: list[int] = []
    for i in range(1, p + 1):
        symbols += [p + j for j in range(i, 0, -1)]
    return Text(tuple(symbols), _t_p_names(p))


def _gen_t_p(p: int) -> Text:
    alpha = a_staircase(p).symbols
    beta = b_staircase(p).symbols
    m = p * (p + 1) // 2
    symbols: list[int] = []
    for j in range(1, m):
        symbols += list(alpha[m - j:]) + [0] + list(beta[: j + 1])
    symbols += list(alpha) + [0] + list(beta)
    return Text(tuple(symbols), _t_p_names(p))


def _gen_w_sigma(sigma: int) -> Text:
    names = {i - 1: f"a_{i}" for i in range(1, sigma + 1)}
    symbols: list[int] = []
    for i in range(1, sigma):
        symbols += [i - 1, i]
    symbols += list(range(sigma))
    return Text(tuple(symbols), names)


_FIB_NAMES = {0: "a", 1: "b"}


def fibonacci_word(k: int) -> Text:
    """F_1 = b, F_2 = a, F_k = F_(k-1) F_(k-2)."""
    if k < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {k}")
    a, b = (1,), (0,)       # F_1, F_2
    for _ in range(k - 2):
        a, b = b, b + a
    return Text(b if k > 1 else a, _FIB_NAMES)


def central_word(k: int) -> Text:
    """C_k: the k-th Fibonacci word minus its last two symbols."""
    if k < 3:
        raise ValueError(f"central words need index >= 3, got {k}")
    return Text(fibonacci_word(k).symbols[:-2], _FIB_NAMES)


def _gen_fib_plus(k: int) -> Text:
    return Text(fibonacci_word(k).symbols + (0,), _FIB_NAMES)


_C_FIB_NAMES = {0: "a", 1: "b", 2: "c"}


def _gen_c_fib(k: int) -> Text:
    return Text((2,) + fibonacci_word(k).symbols, _C_FIB_NAMES)


def _gen_unary_plus(n: int) -> Text:
    return Text((0,) + (1,) * (n - 1), {0: "a", 1: "b"})


# ---------------------------------------------------------------------------
# family ids and specs

# base id -> (generator, smallest parameter or None for a fixed string)
_BASES: dict[str, tuple[Callable[..., Text], int | None]] = {
    "u_k": (_gen_u_k, 1),
    "T_p": (_gen_t_p, 1),
    "w_sigma": (_gen_w_sigma, 2),
    "fib": (fibonacci_word, 1),
    "central": (central_word, 4),  # C_3 is the empty word
    "fib_plus": (_gen_fib_plus, 2),
    "c_fib": (_gen_c_fib, 3),
    "unary_plus": (_gen_unary_plus, 2),
    "t55": (lambda _p: Text.from_str(T55), None),
}
BASE_FAMILIES = tuple(_BASES)
FAMILIES = BASE_FAMILIES + tuple(f + "_rev" for f in BASE_FAMILIES)
REV_PARTNER = {f: f + "_rev" for f in BASE_FAMILIES}
REV_PARTNER.update({v: k for k, v in REV_PARTNER.items()})


@dataclass(frozen=True)
class FamilySpec:
    """A family id and a parameter that satisfies the family invariants."""

    family: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        smallest = _BASES[self.base_family][1]
        if smallest is None:
            if self.param is not None:
                raise ValueError(f"{self.base_family} takes no parameter")
        elif self.param is None:
            raise ValueError(f"family {self.family} requires a parameter")
        elif self.param < smallest:
            raise ValueError(f"{self.family} parameter must be >= {smallest}, got {self.param}")
        elif self.base_family == "w_sigma" and self.param % 2:
            raise ValueError(f"w_sigma parameter sigma must be even, got {self.param}")

    @property
    def base_family(self) -> str:
        return self.family[:-4] if self.family.endswith("_rev") else self.family

    @property
    def reversed_orientation(self) -> bool:
        return self.family.endswith("_rev")


def generate(spec: FamilySpec) -> Text:
    """Construct the family string; reversed ids reverse the base string."""
    w = _BASES[spec.base_family][0](spec.param)
    return reverse(w) if spec.reversed_orientation else w


# ---------------------------------------------------------------------------
# closed-form predictions

def _always(_p: int) -> bool:
    return True


# family -> measure -> (gate, value function, formula)
_PREDICTORS: dict[str, dict[str, tuple]] = {
    "u_k": {
        "r": (_always, lambda k: 3 * k + 1, "r = 3k + 1"),
        "r_dollar": (_always, lambda k: 3 * k + 2, "r_dollar = 3k + 2"),
        "r_b": (_always, lambda k: 3 * k + 2, "r_b = 3k + 2"),
    },
    "u_k_rev": {
        "r": (_always, lambda k: 4 * k + 1, "r = 4k + 1"),
        "r_dollar": (_always, lambda k: 4 * k + 2, "r_dollar = 4k + 2"),
        "r_b": (_always, lambda k: 4 * k + 1, "r_b = 4k + 1"),
    },
    "T_p": {
        "z": (_always, lambda p: (3 * p * p + 3 * p) // 2, "z = 3p^2/2 + 3p/2"),
        "z_no": (_always, lambda p: (3 * p * p + 3 * p) // 2, "z_no = 3p^2/2 + 3p/2"),
    },
    # The reversed staircase family parses as one phrase per reversed block
    # plus the 4p-1 phrases of the leading block: (m_p - 1) + (4p - 1).
    "T_p_rev": {
        "z": (lambda p: p >= 2, lambda p: (p * p + 9 * p) // 2 - 2, "z = p^2/2 + 9p/2 - 2"),
        "z_no": (lambda p: p >= 2, lambda p: (p * p + 9 * p) // 2 - 2, "z_no = p^2/2 + 9p/2 - 2"),
    },
    "w_sigma": {
        m: (_always, lambda s: 5 * s // 2 - 2, f"{m} = 2*sigma + sigma/2 - 2")
        for m in ("z", "z_no", "z_e", "z_end", "v")
    },
    "w_sigma_rev": {
        m: (_always, lambda s: 2 * s - 1, f"{m} = 2*sigma - 1")
        for m in ("z", "z_no", "z_e", "z_end", "v")
    },
    "c_fib_rev": {
        "v": (lambda k: k >= 9 and k % 2 == 1, lambda k: 6, "v = 6 (odd k >= 9)"),
    },
    "fib_plus": {
        "r": (lambda k: k % 2 == 0, lambda k: 4, "r = 4 (even k)"),
    },
    "unary_plus": {
        "e": (_always, lambda n: n, "e = n"),
    },
    "unary_plus_rev": {
        "e": (_always, lambda n: 2 * (n - 1), "e = 2(n - 1)"),
    },
    "t55": {
        "z": (_always, lambda _p: 14, "z = 14"),
    },
    "t55_rev": {
        "z": (_always, lambda _p: 6, "z = 6"),
    },
}


# family -> (quick grid, full grid) of the parameters `revsense verify` checks,
# one entry per family of _PREDICTORS; each quick grid lies inside its full grid.
VERIFY_GRIDS: dict[str, tuple[Sequence[int | None], Sequence[int | None]]] = {
    "u_k": (range(1, 13), range(1, 101)),
    "u_k_rev": (range(1, 13), range(1, 101)),
    "T_p": (range(1, 7), range(1, 21)),
    "T_p_rev": (range(2, 7), range(2, 21)),
    "w_sigma": (range(2, 21, 2), range(2, 201, 2)),
    "w_sigma_rev": (range(2, 21, 2), range(2, 201, 2)),
    "c_fib_rev": (range(9, 16, 2), range(9, 26, 2)),
    "fib_plus": (range(8, 15, 2), range(8, 25, 2)),
    "unary_plus": (range(2, 51), range(2, 501)),
    "unary_plus_rev": (range(2, 51), range(2, 501)),
    "t55": ((None,), (None,)),
    "t55_rev": ((None,), (None,)),
}


def predictions(spec: FamilySpec) -> tuple[Prediction, ...]:
    """Every closed-form measure value known for this family member, in
    measure id order; a family without a parameter is gated as param 0."""
    param = spec.param if spec.param is not None else 0
    table = _PREDICTORS.get(spec.family, {})
    return tuple(Prediction(measure, value(param), formula)
                 for measure, (gate, value, formula) in sorted(table.items()) if gate(param))


# ---------------------------------------------------------------------------
# closed-form transform strings for u_k / u_k_rev

def predict_transform(spec: FamilySpec, variant: str) -> Text:
    """Exact expected BWT ("plain") or BBWT ("bijective") string."""
    if spec.family not in ("u_k", "u_k_rev"):
        raise ValueError(f"no closed-form transform for family {spec.family}")
    if variant not in ("plain", "bijective"):
        raise ValueError(f"unknown transform variant {variant!r}")
    k = spec.param
    a, b = 2 * k, 2 * k + 1
    hsh = [2 * (i - 1) for i in range(1, k + 1)]
    amp = [2 * i - 1 for i in range(1, k + 1)]
    if spec.family == "u_k":
        if variant == "plain":
            symbols = [a] * (2 * k)
            for i in range(k):
                symbols += [b, hsh[i]]
            symbols += [amp[-1]] + amp[:-1]
        else:
            symbols = [amp[-1]] + [a] * (2 * k - 1) + [hsh[0]]
            for i in range(1, k):
                symbols += [b, hsh[i]]
            symbols += [a] + amp[:-1] + [b]
    else:
        if variant == "plain":
            symbols = [a, b] * k + amp + hsh[1:] + [hsh[0]] + [a] * k
        else:
            symbols = [b, a] * k + amp + hsh + [a] * k
    return Text(tuple(symbols), _u_k_names(k))


def transform_predictions(spec: FamilySpec) -> tuple[tuple[str, Text], ...]:
    """(variant, expected text) pairs available for this family member."""
    if spec.family not in ("u_k", "u_k_rev"):
        return ()
    return tuple((v, predict_transform(spec, v)) for v in ("plain", "bijective"))
