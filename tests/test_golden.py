"""Golden seeded artifacts: SHA-256 pins of four deterministic runs.

The digests were first captured with the affine double-and-add group law,
before E(F_p) arithmetic moved to Jacobian coordinates and windowed Straus,
re-pinned once for wire format v2, which drops the collapsed commitments
from nonzero proofs and from the challenge. The two library worlds were
re-pinned once more when they moved from random points of rank28 to
mestre8's catalog generators. Any change to curve arithmetic, encoding or
serialization that alters a single output byte under a fixed seed fails
here.
"""

import hashlib
import random

from hrpks import hierarchy, revocation, serial, sigma
from hrpks.cli import main

from conftest import MERSENNE_89, MERSENNE_127, quiet_setup

TOY = ["--curve", "toy17", "--p", "3123456773", "--q", "3123456773"]

GOLDEN = {
    "cli_toy17":
        "875c0142e9ab35f8c389bf637b35ce2d5035e32b46df58a16b101d8b647a47c8",
    "mestre8_empty_rl":
        "bda05c58bfbf6d021ecb0032c25b95a5bcfd9412e660cbd78e2174ea980f3af1",
    "mestre8_revoked_dept":
        "7bc65d5cb45c1ffae413cb6f84054cb6678f8976c953ff9e14b1ac0e8bdc820c",
    "mestre8_three_revoked_sets":
        "61a4f6293f8dd62511e009cd2f9c5f8c029352ac013646f2aa3a122080b83f32",
}


def _digest(named_blobs):
    h = hashlib.sha256()
    for name, blob in named_blobs:
        h.update(name.encode() + b"\0" + blob + b"\0")
    return h.hexdigest()


def _cli(capsys, *argv):
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 0, err


def test_golden_cli_toy17_walkthrough(tmp_path, capsys):
    d = tmp_path
    params, gm_key, tree = d / "gm.params", d / "gm.key", d / "org.tree"
    key, pub, rl = d / "alice.key", d / "alice.pub", d / "list.rl"
    msg, sig = d / "msg.txt", d / "msg.sig"
    _cli(capsys, "setup", *TOY, "--seed", 1, "--params-out", params,
         "--gm-key-out", gm_key)
    for seed, name in ((2, "financial"), (3, "hr"), (4, "engineering")):
        _cli(capsys, "dept", "add", "--params", params, "--tree", tree,
             "--parent", "/", "--name", name, "--seed", seed)
    _cli(capsys, "member", "join", "--params", params, "--tree", tree,
         "--gm-key", gm_key, "--dept", "/financial", "--id", "alice",
         "--key-out", key, "--pub-out", pub, "--seed", 5)
    serial.save_artifact(rl, "rl", revocation.empty_rl())
    msg.write_bytes(b"wire transfer #42\n")
    _cli(capsys, "sign", "--params", params, "--key", key, "--rl", rl,
         "--msg-file", msg, "--out", sig, "--seed", 6)
    _cli(capsys, "verify", "--params", params, "--pub", pub, "--rl", rl,
         "--msg-file", msg, "--sig", sig)
    files = (params, gm_key, tree, key, pub, sig)
    assert _digest((f.name, f.read_bytes()) for f in files) \
        == GOLDEN["cli_toy17"]


def _mestre8_world(seed):
    """mestre8 (r = 8) mod 2^127-1 with q = 2^89-1, two sibling
    departments and one member in each."""
    rng = random.Random(seed)
    params, gm_sk = quiet_setup("mestre8", MERSENNE_127, MERSENNE_89, rng)
    root = hierarchy.new_root()
    fin = hierarchy.add_department(params, root, rng, name="financial")
    hr = hierarchy.add_department(params, root, rng, name="hr")
    alice = hierarchy.join(params, gm_sk, fin, "alice", rng)
    carol = hierarchy.join(params, gm_sk, hr, "carol", rng)
    return params, fin, alice, carol, rng


def _library_blobs(params, keypair, rl, sig):
    sk, pk = keypair
    return [("params", serial.serialize_artifact("params", params).encode()),
            ("key", serial.serialize_artifact("keypair", (sk, pk)).encode()),
            ("pub", serial.serialize_artifact("cert", pk).encode()),
            ("rl", serial.serialize_artifact("rl", rl).encode()),
            ("sig", serial.serialize_artifact("signature", sig).encode())]


def test_golden_mestre8_join_sign():
    params, _, alice, _, rng = _mestre8_world(2024)
    rl = revocation.empty_rl()
    sig = sigma.sign(params, *alice, rl, b"quarterly report", rng)
    assert sigma.verify(params, alice[1], rl, b"quarterly report",
                        sig).accepted
    assert _digest(_library_blobs(params, alice, rl, sig)) \
        == GOLDEN["mestre8_empty_rl"]


def test_golden_mestre8_sign_past_revoked_department():
    params, fin, _, carol, rng = _mestre8_world(2025)
    rl = revocation.revoke_group(revocation.empty_rl(), fin)
    sig = sigma.sign(params, *carol, rl, b"payroll run", rng)
    assert sig.nonzero_proofs
    assert sigma.verify(params, carol[1], rl, b"payroll run", sig).accepted
    assert _digest(_library_blobs(params, carol, rl, sig)) \
        == GOLDEN["mestre8_revoked_dept"]


def test_golden_mestre8_sign_past_three_revoked_sets():
    # three sets, two of them two planes deep: one signature whose three
    # v_j share one batched inversion
    params, fin, _, carol, rng = _mestre8_world(2026)
    rl = revocation.revoke_group(revocation.empty_rl(), fin)
    for name in ("audit", "tax"):
        dept = hierarchy.add_department(params, fin, rng, name=name)
        rl = revocation.revoke_group(rl, dept)
    sig = sigma.sign(params, *carol, rl, b"year-end close", rng)
    assert len(sig.nonzero_proofs) == 3
    assert sigma.verify(params, carol[1], rl, b"year-end close",
                        sig).accepted
    assert _digest(_library_blobs(params, carol, rl, sig)) \
        == GOLDEN["mestre8_three_revoked_sets"]
