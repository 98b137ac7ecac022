"""Spec-file parsing, serialization, bundled examples, and generation.

The on-disk format is minimal JSON:

    {"c": int, "n": int, "r": int,
     "terms": [{"B": [[int]], "C": [[int]]}, ...],
     "name": str?}

Every B must be a c x c integer skew matrix, every C an (n+1) x (n+1) one;
violations are reported with JSON-pointer locations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import GenerationExhausted, SchemaError
from .forms import FlatForm, TensorSpec, flatten
from .linalg import rank
from .monad import NondegStrategy, check_conditions


@dataclass(frozen=True)
class SpecFile:
    spec: TensorSpec
    r: int
    name: Optional[str] = None

    @property
    def c(self) -> int:
        return self.spec.c

    @property
    def n(self) -> int:
        return self.spec.n

    def flatten(self) -> FlatForm:
        return flatten(self.spec)

    def to_json_dict(self) -> dict:
        doc = {
            "c": self.c,
            "n": self.n,
            "r": self.r,
            "terms": [
                {"B": [list(row) for row in B], "C": [list(row) for row in C]}
                for B, C in self.spec.terms
            ],
        }
        if self.name is not None:
            doc["name"] = self.name
        return doc


def serialize_spec(sf: SpecFile) -> str:
    return json.dumps(sf.to_json_dict(), indent=2) + "\n"


_ALLOWED_KEYS = {"c", "n", "r", "terms", "name"}


def _schema_violations(doc) -> list[tuple[str, str]]:
    bad: list[tuple[str, str]] = []
    if not isinstance(doc, dict):
        return [("", "document must be a JSON object")]
    for key in doc:
        if key not in _ALLOWED_KEYS:
            bad.append((f"/{key}", "unknown key"))
    for key in ("c", "n", "r"):
        if key not in doc:
            bad.append((f"/{key}", "missing required integer"))
        elif not isinstance(doc[key], int) or isinstance(doc[key], bool):
            bad.append((f"/{key}", "must be an integer"))
    if "name" in doc and not isinstance(doc["name"], str):
        bad.append(("/name", "must be a string"))
    if "terms" not in doc:
        bad.append(("/terms", "missing required list"))
    elif not isinstance(doc["terms"], list) or not doc["terms"]:
        bad.append(("/terms", "must be a non-empty list"))
    else:
        for t, term in enumerate(doc["terms"]):
            if not isinstance(term, dict):
                bad.append((f"/terms/{t}", "must be an object with keys B and C"))
                continue
            for key in ("B", "C"):
                if key not in term:
                    bad.append((f"/terms/{t}/{key}", "missing matrix"))
                elif not isinstance(term[key], list):
                    bad.append((f"/terms/{t}/{key}", "must be a list of rows"))
            for key in term:
                if key not in ("B", "C"):
                    bad.append((f"/terms/{t}/{key}", "unknown key"))
    if isinstance(doc.get("c"), int) and doc["c"] < 1:
        bad.append(("/c", "must be >= 1"))
    if isinstance(doc.get("n"), int) and doc["n"] < 1:
        bad.append(("/n", "must be >= 1"))
    if isinstance(doc.get("r"), int) and doc["r"] < 0:
        bad.append(("/r", "must be >= 0"))
    return bad


def parse_spec(source) -> SpecFile:
    """Parse a spec file from a path or a raw JSON string.

    Structural problems raise ``SchemaError`` carrying every violation with
    its JSON pointer; wrong matrix shapes raise ``ShapeMismatch`` and broken
    skew-symmetry ``NotSkew``, each pointing at the offending matrix.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError([("", f"invalid JSON: {e}")]) from None
    bad = _schema_violations(doc)
    if bad:
        raise SchemaError(bad)
    terms = tuple((term["B"], term["C"]) for term in doc["terms"])
    spec = TensorSpec(doc["c"], doc["n"], terms)
    return SpecFile(spec=spec, r=doc["r"], name=doc.get("name"))


def bundled_spec_path(name: str) -> Path:
    """Path of a bundled example spec (``c6p3`` or ``c5p3``)."""
    res = resources.files("orthinst").joinpath("data", f"{name}.json")
    return Path(str(res))


def load_bundled(name: str) -> SpecFile:
    return parse_spec(bundled_spec_path(name))


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


def _paired_skew(size: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal skew matrix of even size with random nonzero block
    parameters."""
    assert size % 2 == 0
    rows = [[0] * size for _ in range(size)]
    for b in range(size // 2):
        lam = rng.choice([1, 2, 3, 4, 5]) * rng.choice([1, -1])
        rows[2 * b][2 * b + 1] = lam
        rows[2 * b + 1][2 * b] = -lam
    return tuple(tuple(r) for r in rows)


def _random_skew(size: int, rng: random.Random, box: int = 3) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            x = rng.randint(-box, box)
            rows[i][j] = x
            rows[j][i] = -x
    return tuple(tuple(r) for r in rows)


def generate(
    c: int, n: int, mode: str = "pure", seed: int = 0, num_terms: int = 3, max_attempts: int = 100
) -> tuple[SpecFile, int]:
    """Generate a verified spec with maximal rank r = (n-1)c.

    ``pure`` emits one block pair with random nonzero block parameters when
    both factors have even size (c even, n odd).  An odd charge is rejected
    outright: the c x c skew factor is singular, so no single term can reach
    full rank.  For even charge on an even-n space (odd point-space
    dimension) the single-term construction is equally impossible, so the
    mode falls back to the multi-term style of the odd-size worked example,
    growing the term count from 2 until the flattening verifies; the spec
    name records the fallback.  ``sum`` draws ``num_terms`` random skew
    pairs per attempt.  Returns the spec and the attempt count.
    """
    if c < 3 or n < 3:
        raise ValueError(f"generation needs c >= 3 and n >= 3, got c={c}, n={n}")
    r = (n - 1) * c
    size = c * (n + 1)

    def verified(sf: SpecFile) -> bool:
        F = sf.flatten()
        if rank(F.M) != size:
            return False
        return check_conditions(F, r, NondegStrategy(budget=0)).passed

    if mode == "pure":
        if c % 2 != 0:
            raise GenerationExhausted(
                f"pure mode needs even charge: a {c}x{c} skew matrix is singular, so a "
                "single-term form cannot reach full rank; use sum mode",
                attempts=0,
            )
        for attempt in range(1, max_attempts + 1):
            rng = random.Random(f"{seed}:gen:{attempt}")
            if (n + 1) % 2 == 0:
                sf = SpecFile(
                    spec=TensorSpec(c, n, ((_paired_skew(c, rng), _paired_skew(n + 1, rng)),)),
                    r=r,
                    name=f"pure-c{c}n{n}-seed{seed}",
                )
                if verified(sf):
                    return sf, attempt
            else:
                # a single term cannot reach full rank over an odd-size point
                # factor; grow a short sum instead
                for t in (2, 3, 4):
                    terms = tuple((_random_skew(c, rng), _random_skew(n + 1, rng)) for _ in range(t))
                    sf = SpecFile(
                        spec=TensorSpec(c, n, terms),
                        r=r,
                        name=f"pure-fallback-sum{t}-c{c}n{n}-seed{seed}",
                    )
                    if verified(sf):
                        return sf, attempt
        raise GenerationExhausted("no verified pure spec found", attempts=max_attempts)
    if mode == "sum":
        t = max(2, num_terms)
        for attempt in range(1, max_attempts + 1):
            rng = random.Random(f"{seed}:gen:{attempt}")
            terms = tuple((_random_skew(c, rng), _random_skew(n + 1, rng)) for _ in range(t))
            sf = SpecFile(
                spec=TensorSpec(c, n, terms),
                r=r,
                name=f"sum{t}-c{c}n{n}-seed{seed}",
            )
            if verified(sf):
                return sf, attempt
        raise GenerationExhausted(
            f"no verified sum spec found in {max_attempts} attempts", attempts=max_attempts
        )
    raise ValueError(f"unknown mode {mode!r}; expected 'pure' or 'sum'")
