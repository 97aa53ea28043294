"""Verdict checks.  Each returns a list of error messages, empty when the
program's output matches the answer expected from the paper's laws and
from the oracle-based reference (never from the code under test)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference


@dataclass
class Expected:
    """What a correct verdict on one table at one depth looks like."""

    name: str
    depth: int
    universe_size: int
    classes: tuple[str, ...]
    closed_types: tuple[str, ...] = ()
    # unary class -> (f-subtype labels, f-supertype labels), in universe order
    f_sets: dict[str, tuple[list[str], list[str]]] | None = None
    valid_in_both: tuple[str, ...] = ()
    valid_in_neither: tuple[str, ...] = ()


def check_galois(doc: dict, exp: Expected) -> list[str]:
    """The adjunction holds on every (term, class) pair but bottom's."""
    errors = []
    if doc.get("violations") != [] or doc.get("cofree_violations") != []:
        errors.append(f"{exp.name}: Galois violations {doc.get('violations')} "
                      f"{doc.get('cofree_violations')}")
    pairs = (exp.universe_size - 1) * len(exp.classes)
    if doc.get("checked_pairs") != pairs or doc.get("bottom_skipped") != 1:
        errors.append(f"{exp.name}: checked {doc.get('checked_pairs')} pairs and skipped "
                      f"{doc.get('bottom_skipped')}, expected {pairs} and 1")
    return errors


def check_report(doc: dict, exp: Expected) -> list[str]:
    errors = check_galois(doc.get("galois", {}), exp)
    if doc.get("depth") != exp.depth or doc.get("universe_size") != exp.universe_size:
        errors.append(f"{exp.name}: universe of {doc.get('universe_size')} terms at depth "
                      f"{doc.get('depth')}, expected {exp.universe_size} at {exp.depth}")
    laws = doc.get("closure_laws", {})
    for key in ("unit_violations", "counit_violations", "idempotence_violations"):
        if laws.get(key) != []:
            errors.append(f"{exp.name}: closure {key} {laws.get(key)}")
    if exp.closed_types and tuple(laws.get("closed_types", ())) != exp.closed_types:
        errors.append(f"{exp.name}: closed types {laws.get('closed_types')} are not "
                      f"exactly the free types {list(exp.closed_types)}")
    mono = doc.get("monotonicity", {})
    if not (mono.get("erasure_ok") is True and mono.get("free_type_ok") is True):
        errors.append(f"{exp.name}: monotonicity violated: {mono}")
    validity = doc.get("validity", {})
    ind = set(validity.get("inductive", {}).get("valid", ()))
    coind = set(validity.get("coinductive", {}).get("valid", ()))
    if not ind <= coind:
        errors.append(f"{exp.name}: inductively valid but not coinductively: "
                      f"{sorted(ind - coind)}")
    for label in exp.valid_in_both:
        if label not in ind or label not in coind:
            errors.append(f"{exp.name}: {label} should be valid in both modes")
    for label in exp.valid_in_neither:
        if label in ind or label in coind:
            errors.append(f"{exp.name}: {label} should be valid in neither mode")
    if exp.f_sets is not None:
        analyses = doc.get("fixpoints", {})
        for cls, (subs, sups) in exp.f_sets.items():
            got = analyses.get(cls, {})
            if got.get("f_subtypes") != subs or got.get("f_supertypes") != sups:
                errors.append(f"{exp.name}: F-(co)algebras of {cls} differ from the oracle")
    if doc.get("verification_ok") is not True:
        errors.append(f"{exp.name}: report says verification failed")
    return errors


def check_pairwise(name: str, labels, edges: np.ndarray,
                   stratum: reference.Stratum) -> list[str]:
    """A built relation agrees with the oracle pair for pair."""
    if tuple(labels) != stratum.labels:
        return [f"{name}: universe differs from the oracle's enumeration "
                f"({len(labels)} terms, expected {len(stratum)})"]
    bad = np.argwhere(np.asarray(edges, dtype=bool) != stratum.related)
    if len(bad):
        i, j = bad[0]
        return [f"{name}: {len(bad)} pairs disagree with the oracle, first "
                f"{labels[i]} <: {labels[j]}"]
    return []


def check_answers(answers: str, stream: list[int], expected: list[bool]) -> list[str]:
    """Query answers ('1' true, '0' false, 'x' failed) against the oracle."""
    if len(answers) != len(stream):
        return [f"queries: {len(answers)} answers for {len(stream)} queries"]
    wrong = [k for k, a in enumerate(answers)
             if a != "x" and (a == "1") != expected[stream[k]]]
    if wrong:
        return [f"queries: {len(wrong)} answers differ from the oracle, first at query {wrong[0]}"]
    return []
