"""Seeded random class-table generator for differential and property tests.

Tables are always well-formed: superclasses point at earlier declarations
(so the extends graph is acyclic with a single root) and every reference
resolves with the right arity.  Every table has at most two generic
classes, each with one parameter.
"""

from __future__ import annotations

import random

from .class_table import ClassDecl, ClassTable, TypeParam, TypeUse

_NAMES = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"]


def random_table(seed: int, max_classes: int = 6) -> ClassTable:
    """The table of `seed`: Object and 1 to `max_classes` - 1 classes
    named from `_NAMES` in order, so `max_classes` must lie in 2..6."""
    if not 2 <= max_classes <= len(_NAMES) + 1:
        raise ValueError(f"max_classes must lie in 2..{len(_NAMES) + 1}, not {max_classes}")
    rng = random.Random(seed)
    count = rng.randint(2, max_classes)
    decls: list[ClassDecl] = [ClassDecl("Object")]
    generics_left = 2

    for k in range(1, count):
        name = _NAMES[k - 1]
        make_generic = generics_left > 0 and rng.random() < 0.6
        if make_generic:
            generics_left -= 1

        prior = decls[:k]
        prior_plain = [d for d in prior if not d.is_generic]
        prior_unary = [d for d in prior if d.arity == 1]

        params: tuple[TypeParam, ...] = ()
        if make_generic:
            params = (TypeParam("T", _pick_bound(rng, name, prior, prior_unary),
                                _pick_lower(rng, prior_plain)),)

        target = rng.choice(prior)
        if target.is_generic:
            arg = _pick_super_arg(rng, name, make_generic, prior_plain)
            superclass = TypeUse(target.name, (arg,))
        else:
            superclass = TypeUse(target.name)
        decls.append(ClassDecl(name, params, superclass))
    return ClassTable(decls)


def _pick_super_arg(rng: random.Random, own_name: str, own_generic: bool,
                    prior_plain: list[ClassDecl]) -> TypeUse:
    choices = []
    if own_generic:
        choices.append(TypeUse("T"))
    choices.extend(TypeUse(d.name) for d in prior_plain)
    if not own_generic:
        # the self-referential F-pattern: class W extends G<W>
        choices.append(TypeUse(own_name))
    return rng.choice(choices)


def _pick_bound(rng: random.Random, own_name: str, prior: list[ClassDecl],
                prior_unary: list[ClassDecl]) -> TypeUse | None:
    roll = rng.random()
    if roll < 0.40:
        return None
    if roll < 0.60:
        plain = [d for d in prior if not d.is_generic]
        return TypeUse(rng.choice(plain).name)
    if roll < 0.85:
        return TypeUse(own_name, (TypeUse("T"),))
    if prior_unary:
        return TypeUse(rng.choice(prior_unary).name, (TypeUse("T"),))
    return None


def _pick_lower(rng: random.Random, prior_plain: list[ClassDecl]) -> TypeUse | None:
    if prior_plain and rng.random() < 0.15:
        return TypeUse(rng.choice(prior_plain).name)
    return None


def has_f_bounds(table: ClassTable) -> bool:
    """True when any parameter bound mentions a type parameter."""
    for decl in table.decls.values():
        names = {p.name for p in decl.params}
        for p in decl.params:
            for bound in (p.upper_bound, p.lower_bound):
                if bound is not None and any(n in names for n in bound.mentioned_names()):
                    return True
    return False
