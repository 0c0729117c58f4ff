"""Text formats: variety files, certificate files, and algebra JSON.

A variety document is two top-level forms::

    (signature (sort NAME)... (op NAME (ARGSORT...) RESULTSORT)...)
    (variety NAME (axiom ((VAR SORT)...) (= TERM TERM))...)

A certificate document is one form naming the route::

    (certificate empty-theory)
    (certificate fujiwara (rank N) AXIOM...)
    (certificate per-sort (sort NAME (rank N) AXIOM...)...)
    (certificate action-split (s-term (VAR) TERM)
        (sort1-witness (rank N) AXIOM...)
        (sort2-axioms (rank N) AXIOM...)
        (sample-h1 PATH)?)

Terms follow ``term := var-name | (op-name term*)``; constants are written
as zero-argument applications.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import sexpr
from .certify import (
    ActionSplitCert,
    CertificateError,
    EmptyTheoryCert,
    FujiwaraCert,
    PerSortCert,
    classify_action_signature,
    restrict_to_part,
)
from .egraph import VarietyDef
from .finalg import AlgebraError, FiniteAlgebra
from .sexpr import SList
from .signature import Signature, SignatureError, validate_signature
from .terms import GeneratorProfile, Identity, SortedVar, TermError, parse_term


def parse_axiom(form, sig: Signature) -> Identity:
    ax = sexpr.expect_list(form, "axiom")
    if len(ax) != 3 or not isinstance(ax[1], SList):
        raise sexpr.SexprError("axiom needs a variable list and an equation", ax.line, ax.col)
    vs: list[SortedVar] = []
    for decl in ax[1]:
        if not isinstance(decl, SList) or len(decl) != 2:
            raise sexpr.SexprError("variable declarations look like (name sort)", ax.line, ax.col)
        vname = sexpr.atom_text(decl[0], "variable name")
        sname = sexpr.atom_text(decl[1], "sort name")
        try:
            sort = sig.sort_named(sname)
        except SignatureError:
            raise sexpr.SexprError(f"unknown sort '{sname}'", decl.line, decl.col) from None
        vs.append(SortedVar(vname, sort.id))
    try:
        profile = GeneratorProfile.of_vars(sig, vs)
    except TermError as e:
        raise TermError(e.msg, ax[1].line, ax[1].col) from None
    eq = ax[2]
    if not isinstance(eq, SList) or len(eq) != 3 or sexpr.head(eq) != "=":
        raise sexpr.SexprError("expected (= term term)", eq.line, eq.col)
    lhs = parse_term(eq[1], sig, profile)
    rhs = parse_term(eq[2], sig, profile)
    return Identity(profile, lhs, rhs)


def parse_variety_document(text: str) -> VarietyDef:
    forms = sexpr.parse_all(text)
    if len(forms) != 2:
        raise sexpr.SexprError(
            "a variety document has a (signature ...) and a (variety ...) form", 1, 0
        )
    sig = validate_signature(forms[0])
    var_form = sexpr.expect_list(forms[1], "variety")
    if len(var_form) < 2:
        raise sexpr.SexprError("variety form needs a name", var_form.line, var_form.col)
    name = sexpr.atom_text(var_form[1], "variety name")
    axioms = tuple(parse_axiom(f, sig) for f in var_form.items[2:])
    return VarietyDef(sig, name, axioms)


def load_variety(path) -> VarietyDef:
    return parse_variety_document(Path(path).read_text())


def _parse_witness(forms, sig: Signature, where: str) -> tuple[int, tuple[Identity, ...]]:
    """A witness body: exactly one ``(rank N)`` and any number of axioms.

    Any other form is an error, so a misspelled axiom is never dropped.
    """
    ranks = []
    axioms = []
    for f in forms:
        kind = sexpr.head(f)
        if kind == "rank":
            ranks.append(f)
        elif kind == "axiom":
            axioms.append(parse_axiom(f, sig))
        else:
            raise CertificateError(
                f"{where} takes (rank N) and (axiom ...) forms, not '{kind or sexpr.unparse(f)}'",
                f.line,
                f.col,
            )
    if len(ranks) != 1 or len(ranks[0]) != 2:
        raise CertificateError(f"{where} needs exactly one (rank N)")
    try:
        return int(sexpr.atom_text(ranks[0][1], "rank")), tuple(axioms)
    except ValueError:
        raise CertificateError(f"{where}: rank must be an integer") from None


def parse_certificate_document(text: str, variety: VarietyDef, base_dir=None):
    form = sexpr.parse_one(text)
    cert = sexpr.expect_list(form, "certificate")
    if len(cert) < 2:
        raise CertificateError("certificate form needs a route name")
    route = sexpr.atom_text(cert[1], "route name")
    body = cert.items[2:]
    if route == "empty-theory":
        if body:
            raise CertificateError("empty-theory certificates take no parameters")
        return EmptyTheoryCert()
    if route == "fujiwara":
        rank, axioms = _parse_witness(body, variety.sig, "fujiwara certificate")
        return FujiwaraCert(extra_axioms=axioms, rank=rank)
    if route == "per-sort":
        witnesses: dict[str, FujiwaraCert] = {}
        for f in body:
            entry = sexpr.expect_list(f, "sort")
            if len(entry) < 2:
                raise CertificateError("per-sort entries look like (sort NAME (rank N) axioms...)")
            sname = sexpr.atom_text(entry[1], "sort name")
            if sname in witnesses:
                raise CertificateError(f"per-sort certificate gives sort '{sname}' twice")
            rank, axioms = _parse_witness(
                entry.items[2:], variety.sig, f"per-sort witness for '{sname}'"
            )
            witnesses[sname] = FujiwaraCert(extra_axioms=axioms, rank=rank)
        if not witnesses:
            raise CertificateError("per-sort certificate declares no witnesses")
        return PerSortCert(witnesses=witnesses)
    if route == "action-split":
        split = classify_action_signature(variety.sig)
        sub1 = restrict_to_part(variety.sig, split, 1)
        sub2 = restrict_to_part(variety.sig, split, 2)
        s_var = s_term = None
        w1 = w2 = None
        rank1 = rank2 = None
        sample = None
        seen: set[str] = set()
        for f in body:
            kind = sexpr.head(f)
            if kind in seen:
                raise CertificateError(f"action-split certificate gives the '{kind}' section twice")
            seen.add(kind)
            if kind == "s-term":
                if len(f) != 3 or not isinstance(f[1], SList) or len(f[1]) != 1:
                    raise CertificateError("s-term looks like (s-term (VAR) TERM)")
                vname = sexpr.atom_text(f[1][0], "action variable")
                s_var = SortedVar(vname, 0)
                prof = GeneratorProfile.of_vars(sub2, [s_var])
                s_term = parse_term(f[2], sub2, prof)
            elif kind == "sort1-witness":
                rank1, w1 = _parse_witness(f.items[1:], sub1, "sort1-witness")
            elif kind == "sort2-axioms":
                rank2, w2 = _parse_witness(f.items[1:], sub2, "sort2-axioms")
            elif kind == "sample-h1":
                if len(f) != 2:
                    raise CertificateError("sample-h1 looks like (sample-h1 PATH)")
                rel = sexpr.atom_text(f[1], "sample path")
                path = Path(base_dir or ".") / rel
                sample = load_algebra_json(path, sub1)
            else:
                raise CertificateError(
                    f"unknown action-split section '{kind or sexpr.unparse(f)}'", f.line, f.col
                )
        if s_var is None or s_term is None:
            raise CertificateError("action-split certificates need an (s-term ...) section")
        if w1 is None or w2 is None:
            raise CertificateError(
                "action-split certificates need sort1-witness and sort2-axioms sections"
            )
        return ActionSplitCert(
            s_var=s_var,
            s_term=s_term,
            sort1_axioms=w1,
            sort1_rank=rank1,
            sort2_axioms=w2,
            sort2_rank=rank2,
            sample_h1=sample,
        )
    raise CertificateError(
        f"unknown certificate route '{route}' "
        "(expected empty-theory, fujiwara, per-sort, or action-split)"
    )


def load_certificate(path, variety: VarietyDef):
    p = Path(path)
    return parse_certificate_document(p.read_text(), variety, base_dir=p.parent)


def load_algebra_json(path, sig: Signature) -> FiniteAlgebra:
    data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    return FiniteAlgebra.from_json_dict(sig, data)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; a repeat is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise AlgebraError(f"JSON object gives the key {key!r} twice")
        out[key] = value
    return out


def parse_profile_spec(spec: str, sig: Signature) -> dict[str, int]:
    """Profile syntax: 'elem=3' or 'sort1=2,sort2=1'; omitted sorts get 0.

    Returns the generator count of every sort, in signature order.  The
    caller makes the profile, so that it can check the counts first.
    """
    counts: dict[str, int] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise SignatureError(f"bad profile component '{chunk}', expected SORT=COUNT")
        name, _, num = chunk.partition("=")
        name = name.strip()
        if name in counts:
            raise SignatureError(f"sort '{name}' is given twice in the profile")
        try:
            counts[name] = int(num)
        except ValueError:
            raise SignatureError(f"bad generator count in '{chunk}'") from None
        if counts[name] < 0:
            raise SignatureError(f"negative generator count for sort '{name}'")
    for name in counts:
        sig.sort_named(name)  # raises UnknownSort for typos
    return {s.name: counts.get(s.name, 0) for s in sig.sorts}
