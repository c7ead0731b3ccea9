"""Served point reads account filter and index probes like direct reads."""

from dataclasses import asdict

from repro import DBService, ServiceConfig, encode_uint_key
from tests.conftest import make_tree


def flushed_tree():
    tree = make_tree(cache_bytes=64 << 10)
    for i in range(1500):
        tree.put(encode_uint_key(i * 3), b"v%d" % i)
    tree.flush()
    return tree


def probe_counts(tree):
    return asdict(tree.stats.probe)


def test_service_gets_count_the_same_probes_as_tree_gets():
    direct = flushed_tree()
    served_tree = flushed_tree()
    service = DBService(served_tree, ServiceConfig(num_workers=1))
    # Present keys, absent keys inside the runs' range (filter negatives and
    # false positives) and absent keys beyond it.
    keys = [encode_uint_key(i) for i in range(0, 4800, 7)]
    try:
        before_direct = probe_counts(direct)
        before_served = probe_counts(served_tree)
        for key in keys:
            assert service.get(key).found == direct.get(key).found
        delta_direct = {k: v - before_direct[k] for k, v in probe_counts(direct).items()}
        delta_served = {k: v - before_served[k] for k, v in probe_counts(served_tree).items()}
    finally:
        service.close()
    assert delta_served == delta_direct
    assert delta_served["filter_probes"] > 0
    assert delta_served["filter_negatives"] > 0
    assert delta_served["false_positives"] > 0
