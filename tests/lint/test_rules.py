"""Each rule family fires on its seeded-violation fixture tree.

The fixtures under ``tests/lint/fixtures`` are never imported — the
checker is pure AST for arbitrary trees — and every assertion pins the
exact rule id and line so a rule that silently goes blind fails here.
"""

from pathlib import Path

from repro.lint import run_check

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(tree: str, family: str):
    report = run_check([FIXTURES / tree], rules=[family])
    return [(f.rule_id, f.path, f.line) for f in report.findings]


def test_fingerprint_rules_fire_with_exact_lines():
    got = findings_for("unfingerprinted", "fingerprint")
    assert ("fingerprint.stale-exemption", "api/options.py", 5) in got
    assert ("fingerprint.contradictory-exemption", "api/options.py", 6) in got
    assert ("fingerprint.missing-reason", "api/options.py", 7) in got
    assert ("fingerprint.unfingerprinted", "api/options.py", 16) in got
    # the exempt-with-reason field and the fingerprinted fields are clean
    assert not any(line in (4, 12, 13, 14) for _, _, line in got)


def test_block_protocol_rules_fire_with_exact_lines():
    got = findings_for("protocol_drift", "block-protocol")
    assert ("block-protocol.roundtrip", "blocks/bad_block.py", 11) in got
    assert ("block-protocol.signature", "blocks/bad_block.py", 17) in got
    # "jzz" is not a linearisation field at all
    assert ("block-protocol.constant-fields", "blocks/bad_block.py", 29) in got
    # "ex" is a real field but the prepared lineariser never writes it
    assert ("block-protocol.constant-fields", "blocks/bad_block.py", 30) in got
    # invalid terminal kind, then an analogue entry with no terminals
    assert ("block-protocol.registry-terminals", "blocks/bad_block.py", 40) in got
    assert ("block-protocol.registry-terminals", "blocks/bad_block.py", 44) in got
    # batched_lineariser itself has the protocol signature — no finding
    assert not any(line == 20 for _, _, line in got)


def test_kernel_purity_rules_fire_with_exact_lines():
    got = findings_for("impure_kernel", "kernel-purity")
    assert ("kernel-purity.nondeterminism", "core/kernels.py", 13) in got
    assert ("kernel-purity.forbidden-call", "core/kernels.py", 14) in got
    assert ("kernel-purity.object-mode", "core/kernels.py", 15) in got
    # _impl is compiled via the njit(cache=True)(_impl) build call and
    # closes over the mutable module global SCALE
    assert ("kernel-purity.closure", "core/kernels.py", 20) in got


def test_all_consistency_rules_fire_with_exact_lines():
    got = findings_for("broken_all", "facade")
    assert ("facade.all-format", "computed.py", 3) in got
    assert ("facade.all-unresolved", "exports.py", 3) in got
    assert ("facade.all-missing", "noall.py", 1) in got
    assert len(got) == 3


def test_every_rule_family_exits_nonzero_on_its_fixture():
    for tree, family in (
        ("unfingerprinted", "fingerprint"),
        ("protocol_drift", "block-protocol"),
        ("impure_kernel", "kernel-purity"),
        ("broken_all", "facade"),
    ):
        report = run_check([FIXTURES / tree], rules=[family])
        assert not report.ok, f"{family} found nothing in {tree}"
        assert report.exit_code() == 1
