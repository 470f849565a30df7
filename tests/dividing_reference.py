"""Slow reference for certify_dividing: one oracle call per k-subset.

certify_dividing as it was before it asked the joint-realizability oracle
once per atomic diagram: admit calls plugin.jointly_realizable for every
k-subset it checks. The pool, the greedy pass, the growth steps and the
records are the search's own, so a certificate found here must equal
certify_dividing's field for field, its structure included.
"""

import itertools

from levelsat.construction import InternalFaultError
from levelsat.dividing import (
    DividesWitness,
    _matching_tuples,
    _next_fin_level,
    _type_formula,
)
from levelsat.evaluator import diag_key, qf_type_equal
from levelsat.formula import render, roles
from levelsat.structures import apply_delta


def reference_certify(plugin, chain, phi, a_ids, b_ids, k, L, *, seed=0):
    xs, ys, rest = roles(phi)
    M = chain.final
    base = tuple(zip(rest, a_ids))

    def constraint(c):
        return phi, dict(base + tuple(zip(ys, c)))

    family, confirmations = [], []

    def admit(c, M_now):
        fresh = []
        for S in itertools.combinations(range(len(family)), k - 1):
            cons = [constraint(family[i]) for i in S] + [constraint(c)]
            if plugin.jointly_realizable(M_now, xs, cons):
                return False
            fresh.append(S + (len(family),))
        confirmations.extend(fresh)
        return True

    for c in _matching_tuples(M, a_ids, b_ids, seed):
        if admit(c, M):
            family.append(c)
            if len(family) >= L:
                break

    grown = 0
    target = diag_key(M, a_ids + b_ids)
    while len(family) < L:
        fam_ids = tuple(sorted({e for c in family for e in c if e not in a_ids}))
        chi, p_vars, w_vars, p_ids = _type_formula(M, a_ids, b_ids, fam_ids)
        ext = plugin.extends_with_witness(
            M, chi, p_ids, _next_fin_level(M), x_vars=p_vars, y_vars=w_vars
        )
        if ext is None:
            return None
        M = apply_delta(M, ext.delta)
        c = ext.witness
        if diag_key(M, a_ids + c) != target:
            raise InternalFaultError("grown instance has the wrong type")
        if not admit(c, M):
            return None
        family.append(c)
        grown += 1

    types_ok = tuple(qf_type_equal(M, c, family[0], over=a_ids) for c in family)
    return DividesWitness(
        render(phi), k, a_ids, tuple(family), types_ok, tuple(confirmations), grown, M
    )
