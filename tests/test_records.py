"""Every value and result type is an immutable named tuple; two of them check their fields."""

import numpy as np
import pytest

from newton2pep import (
    E1FreeParams,
    NewtonNodes,
    NodeMismatchError,
    QtepPair,
    certify_singular,
    companion_pencil,
    delta_operators,
    membership_newton,
    spectrum_pair_oracle,
    unimodular_witnesses,
    verify_linearization,
    verify_spectrum_match,
)
from newton2pep import linearize, matpoly, spaces, twoparam

from helpers import random_newton

RECORD_TYPES = [name for module in (matpoly, spaces, linearize, twoparam)
                for name in module.__all__ if isinstance(getattr(module, name), type)]


@pytest.fixture(scope="module")
def records():
    """One instance of every record type, by type name, from one n = 1 run of each stage."""
    rng = np.random.default_rng(3)
    q = random_newton(rng, 1)
    pencil = companion_pencil(q)
    params = E1FreeParams.companion(q)
    membership = membership_newton(pencil, q)
    match = verify_spectrum_match(q, pencil, slices=1)
    pair = QtepPair(q, random_newton(rng, 1, q.nodes))
    sample = spectrum_pair_oracle(pair)
    found = [q.nodes, q, pencil, membership, params,
             unimodular_witnesses(q, pencil, params), verify_linearization(pencil, q),
             pair, delta_operators(pencil, pencil),
             certify_singular(pencil, pencil), match.records[0], match, sample.points[0], sample]
    return {type(record).__name__: record for record in found}


def test_every_record_type_is_built(records):
    assert len(RECORD_TYPES) == 14
    assert sorted(records) == sorted(RECORD_TYPES)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_membership_ansatz_is_a_read_only_array(records):
    ansatz = records["MembershipResult"].ansatz
    assert type(ansatz) is np.ndarray and ansatz.shape == (3,) and ansatz.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        ansatz[0] = 0


def test_nodes_are_coerced_and_checked_on_every_route():
    nodes = NewtonNodes(1, beta2=2.5)
    assert nodes == (1, 0, 0, 2.5) and all(type(z) is complex for z in nodes)
    assert type(nodes._replace(alpha2=3)) is NewtonNodes
    for build in (lambda: NewtonNodes(np.nan, 0, 0, 0), lambda: NewtonNodes(beta1=np.inf),
                  lambda: nodes._replace(alpha2=complex(0, np.nan))):
        with pytest.raises(ValueError, match="must be finite"):
            build()


def test_pair_nodes_are_checked_on_every_route():
    rng = np.random.default_rng(4)
    q1 = random_newton(rng, 1, NewtonNodes(1, 2, 3, 4))
    other = random_newton(rng, 1, NewtonNodes())
    pair = QtepPair(q1=q1, q2=random_newton(rng, 2, q1.nodes))
    assert (pair.p1, pair.p2) == (1, 2) and pair.nodes == q1.nodes
    for build in (lambda: QtepPair(q1, other), lambda: QtepPair(q2=other, q1=q1),
                  lambda: pair._replace(q2=other)):
        with pytest.raises(NodeMismatchError):
            build()
