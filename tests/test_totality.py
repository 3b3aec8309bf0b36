"""Loader and verifier totality: whatever the bytes, `deserialize_artifact`
returns a value or raises ParseError / InvariantError, and whatever it
returns, `sigma.verify` answers with a VerifyResult and
`hierarchy.verify_cert` with a bool. `sigma.verify` rejects any
`Signature` value built in code as well.

Seeded mutations of one valid artifact of every kind: field-wise (each
leaf or subtree replaced by a value of another JSON type, or removed) and
byte-wise (truncations and flipped bytes). Below them, one named test per
loader leak found before the codec table.
"""

import dataclasses
import json
import random

import pytest

from hrpks import cli, hierarchy, serial, sigma
from hrpks.assumption_lab import RelationReport, order_report
from hrpks.errors import InvariantError, ParseError
from hrpks.hierarchy import add_department, join, new_root, verify_cert
from hrpks.revocation import empty_rl, revoke_group, revoke_member
from hrpks.sigma import NonzeroProof, VerifyResult, sign, verify

from conftest import make_mestre8_params

MESSAGE = b"totality"
# a value of every JSON type, plus strings a codec might half-accept and
# an integer too large to shift by or allocate
REPLACEMENTS = (7, 1.5, None, [], ["7", "7"], {}, {"x": "7"}, "x", "123",
                "-1", "", "inf", "1_0", " 5", "9" * 30)
BYTE_MUTATIONS = 150
# values a `Signature` built in code may hold where the codec admits only
# ints of one range: other Python types, out-of-range ints, and tuples and
# nonzero proofs holding them
SIG_VALUES = (True, 1.5, None, "7", -1, 1 << 400, (), (7,), ("7",), (1.5,),
              (True,), (None,), NonzeroProof(1.5, 2), NonzeroProof(True, None))


@pytest.fixture(scope="module")
def world():
    return make_world()


def make_world():
    """mestre8 parameters (r = 8), a two-level tree, a member of /a/one, and an RL
    with one revoked department and one revoked member, so the signature
    carries commitments and a nonzero proof."""
    params, gm = make_mestre8_params()
    rng = random.Random(5)
    root = new_root()
    a = add_department(params, root, rng, name="a")
    b = add_department(params, root, rng, name="b")
    one = add_department(params, a, rng, name="one")
    sk, pk = join(params, gm, one, "alice", rng)
    _bob_sk, bob = join(params, gm, b, "bob", rng)
    rl = revoke_member(revoke_group(empty_rl(), b), bob)
    sig = sign(params, sk, pk, rl, MESSAGE, rng)
    assert verify(params, pk, rl, MESSAGE, sig).accepted
    relations = RelationReport(
        params_digest=params.digest().hex(), method="exhaustive", bound=3,
        relations=((-2, 0, 1), (0, 0, 3)), trivial_flags=(False, True),
        orders=(3, 5, 7), q_over_min_order=0.25, wall_time=0.5)
    artifacts = [("params", params), ("cert", pk), ("keypair", (sk, pk)),
                 ("rl", rl), ("signature", sig), ("tree", root),
                 ("report", order_report(params)), ("report", relations)]
    return params, pk, rl, sig, artifacts


def _paths(doc, prefix=()):
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _field_mutants(text):
    """(description, mutated text) for every node of the document: each
    replacement value in its place, and the node removed."""
    for path in _paths(json.loads(text)):
        for value in REPLACEMENTS + (dataclasses.MISSING,):
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            if value is dataclasses.MISSING:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            yield f"{path} = {value!r}", json.dumps(doc, sort_keys=True)


def _byte_mutants(text, rng):
    data = text.encode("utf-8")
    for _ in range(BYTE_MUTATIONS):
        pos = rng.randrange(len(data))
        if rng.random() < 0.3:
            out, what = data[:pos], f"truncated at {pos}"
        else:
            flip = rng.randrange(1, 256)
            out = data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1:]
            what = f"byte {pos} ^ {flip}"
        # surrogateescape keeps invalid UTF-8 as lone surrogates in the str
        yield what, out.decode("utf-8", "surrogateescape")


def _load(text, curve):
    try:
        return serial.deserialize_artifact(text, curve=curve)
    except (ParseError, InvariantError):
        return None


def _check_verifiers(world, kind, value, what):
    """Run the verifiers on a loaded value in place of its valid original."""
    params, pk, rl, sig, _ = world
    if kind == "params":
        params = value
    elif kind in ("cert", "keypair"):
        pk = value if kind == "cert" else value[1]
    elif kind == "rl":
        rl = value
    elif kind == "signature":
        sig = value
    else:
        return
    assert isinstance(verify(params, pk, rl, MESSAGE, sig), VerifyResult), \
        what
    assert verify_cert(params, pk) in (True, False), what


def _run_mutants(world, mutants, kind):
    params, pk = world[0], world[1]
    loaded = 0
    for what, text in mutants:
        what = f"{kind} {what}"
        try:
            for curve in (None, params.curve):
                value = _load(text, curve)
                if value is not None:
                    loaded += 1
                    _check_verifiers(world, kind, value, what)
            # any text of any kind, loadable or not, as a GM certificate:
            # verify_cert loads it before checking that it is a signature
            forged = dataclasses.replace(
                pk, cert=text.encode("utf-8", "surrogateescape"))
            assert verify_cert(params, forged) in (True, False), what
        except Exception as e:
            pytest.fail(f"{what}: {type(e).__name__}: {e}")
    return loaded


def test_field_mutations_load_or_raise_only_parse_or_invariant(world):
    for kind, value in world[4]:
        text = serial.serialize_artifact(kind, value)
        # some mutants stay loadable ("123" as an id or a number), so the
        # verifiers see them
        assert _run_mutants(world, _field_mutants(text), kind) > 0, kind


def test_byte_mutations_load_or_raise_only_parse_or_invariant(world):
    rng = random.Random(20251018)
    for kind, value in world[4]:
        text = serial.serialize_artifact(kind, value)
        _run_mutants(world, _byte_mutants(text, rng), kind)


def _signature_mutants(sig):
    """(description, field changes): each field of sig replaced whole, and
    element 0 of each tuple field, by each of SIG_VALUES."""
    for field in dataclasses.fields(sig):
        old = getattr(sig, field.name)
        for value in SIG_VALUES:
            yield f"{field.name} = {value!r}", {field.name: value}
            if isinstance(old, tuple):
                yield (f"{field.name}[0] = {value!r}",
                       {field.name: (value,) + old[1:]})


def test_signatures_built_in_code_are_rejected(world):
    """No codec stands between a `Signature` built in code and verify: every
    mutant the constructor takes is a Reject, through the public verify
    and through the bare proof check on the GM key, which certificate
    checks run."""
    params, pk, rl, sig, _ = world
    built = 0
    for what, changes in _signature_mutants(sig):
        try:
            mutant = dataclasses.replace(sig, **changes)
        except TypeError:
            continue  # the constructor refuses it: there is nothing to verify
        built += 1
        for key, check in ((pk, verify), (params.gm_pub, sigma._verify_proof)):
            try:
                result = check(params, key, rl, MESSAGE, mutant)
            except Exception as e:
                pytest.fail(f"{what}: {type(e).__name__}: {e}")
            assert isinstance(result, VerifyResult), what
            assert not result.accepted, what
    assert built > 100, built


def test_hyperplanes_built_in_code_take_only_int_coefficients(world):
    """A revoked set built in code reaches verify without the codec's
    canonical integers, so the constructor refuses any other coefficient,
    as constant or as linear part."""
    r = world[0].r
    for value in (1.5, True, None, "7"):
        for coeffs in ((value,) + (1,) * r, (1, value) + (1,) * (r - 1)):
            with pytest.raises(InvariantError, match="must be ints"):
                hierarchy.Hyperplane(coeffs)


# -- one test per leak the mutation suite was written to close -------------


def _doc(kind, value):
    return json.loads(serial.serialize_artifact(kind, value))


def test_format_v1_documents_are_refused(world):
    # format 2 keeps no reader for format 1, whatever the kind
    params, pk, rl, sig, artifacts = world
    assert sig.nonzero_proofs
    for kind, value in artifacts:
        doc = _doc(kind, value)
        doc["version"] = "1"
        if kind == "signature":  # the two proof fields format 1 sent
            for proof in doc["nonzero_proofs"]:
                proof.update(d="2", gamma_seed_index=str(sig.retry))
        with pytest.raises(ParseError,
                           match="unsupported format version '1'"):
            serial.deserialize_artifact(json.dumps(doc))
    # a format-1 certificate is no valid certificate
    cert = json.loads(pk.cert)
    cert["version"] = "1"
    forged = dataclasses.replace(pk, cert=json.dumps(cert).encode("utf-8"))
    assert verify_cert(params, pk) and verify_cert(params, forged) is False


def test_leak_cert_member_id_not_a_string(world):
    # loaded, then sigma.verify and verify_cert raised AttributeError
    params, pk, rl, sig, _ = world
    doc = _doc("cert", pk)
    doc["member_id"] = 5
    with pytest.raises(ParseError):
        serial.deserialize_artifact(json.dumps(doc), curve=params.curve)


def test_leak_params_gm_pub_not_an_object(world):
    # AttributeError from the params loader
    doc = _doc("params", world[0])
    doc["gm_pub"] = []
    with pytest.raises(ParseError):
        serial.deserialize_artifact(json.dumps(doc))


def test_leak_composite_p_is_invariant_error(world):
    # a bare ValueError, where a composite q was already InvariantError
    doc = _doc("params", world[0])
    doc["p"] = str(world[0].p * 3)
    with pytest.raises(InvariantError, match="not prime"):
        serial.deserialize_artifact(json.dumps(doc))


def test_leak_report_float_not_a_number(world):
    # float("abc") escaped as a bare ValueError
    for kind, value in world[4]:
        if kind == "report":
            doc = _doc(kind, value)
            doc["wall_time"] = "abc"
            with pytest.raises(ParseError):
                serial.deserialize_artifact(json.dumps(doc))


def test_leak_signature_list_given_as_string(world):
    # "s": "123" parsed as s = (1, 2, 3)
    doc = _doc("signature", world[3])
    doc["s"] = "123"
    with pytest.raises(ParseError):
        serial.deserialize_artifact(json.dumps(doc))


def test_leak_tree_child_name_with_slash_or_empty(world):
    # "a/b" loaded as a department find_dept cannot reach
    root = dict(world[4])["tree"]
    for name in ("a/b", ""):
        doc = _doc("tree", root)
        doc["root"]["children"][0]["name"] = name
        with pytest.raises(InvariantError, match="slash"):
            serial.deserialize_artifact(json.dumps(doc))


def test_leak_deeply_nested_json():
    # RecursionError from json.loads
    with pytest.raises(ParseError):
        serial.deserialize_artifact("[" * 100000 + "]" * 100000)
    text = ('{"kind":"rl","version":"%s","members":' % serial.FORMAT_VERSION
            + "[" * 100000)
    with pytest.raises(ParseError):
        serial.deserialize_artifact(text)


def test_leak_params_q_zero(world):
    # ZeroDivisionError from AuxGroup, built before q was tested
    doc = _doc("params", world[0])
    doc["q"] = "0"
    with pytest.raises(InvariantError, match="q is not prime"):
        serial.deserialize_artifact(json.dumps(doc))


def test_leak_q_too_wide_for_challenge_hashing(world):
    # loaded, then sigma.verify raised ValueError deriving collapse gammas
    # of bitlen(q) - 1 > 256 bits against an RL with groups
    from hrpks import modmath

    q = (1 << 257) + 1
    while not modmath.is_probable_prime(q):
        q += 2
    k = 2
    while not modmath.is_probable_prime(k * q + 1):
        k += 2
    rho = k * q + 1
    z = 2
    while pow(z, k, rho) == 1:
        z += 1
    g = pow(z, k, rho)
    doc = _doc("params", world[0])
    doc["q"] = str(q)
    doc["aux"] = {"rho": str(rho), "g": str(g), "h": str(pow(g, 5, rho))}
    with pytest.raises(InvariantError, match="q must be below 2"):
        serial.deserialize_artifact(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("l_c", str(1 << 63)),   # OverflowError from 1 << l_c in the loader
    ("l_s", str(1 << 63)),   # loaded, then OverflowError in verify
    ("l_s", str(10 ** 6)),   # loaded, then a 10^6-bit comb table in verify
])
def test_leak_huge_challenge_or_gap_bits(world, field, value):
    params, pk = world[0], world[1]
    doc = _doc("params", params)
    doc[field] = value
    text = json.dumps(doc)
    with pytest.raises(InvariantError, match=f"need .*{field}"):
        serial.deserialize_artifact(text)
    # the same document as a certificate is "no valid cert"
    forged = dataclasses.replace(pk, cert=text.encode("utf-8"))
    assert verify_cert(params, forged) is False


def test_leak_lone_surrogate_string(world):
    # loaded, then UnicodeEncodeError when verify encoded the member id
    params, pk, rl, sig, _ = world
    text = serial.serialize_artifact("cert", pk).replace(
        '"member_id":"alice"', '"member_id":"\\ud800"')
    with pytest.raises(ParseError):
        serial.deserialize_artifact(text)


def test_leak_overlong_json_integer_literal():
    # json.loads raises a plain ValueError past the int digit limit
    text = ('{"kind":"rl","version":"%s","rl_version":' % serial.FORMAT_VERSION
            + "9" * 5000 + "}")
    with pytest.raises(ParseError):
        serial.deserialize_artifact(text)


def test_leak_non_utf8_file(tmp_path, world):
    # UnicodeDecodeError from load_artifact
    path = tmp_path / "bad.pub"
    path.write_bytes(serial.serialize_artifact("cert", world[1]).encode()
                     .replace(b"alice", b"al\xffce"))
    with pytest.raises(ParseError):
        serial.load_artifact(path)


def test_integers_must_be_canonical_decimal(world):
    for bad in ("007", "+5", " 5", "1_0", "-0", "5 "):
        doc = _doc("rl", world[2])
        doc["rl_version"] = bad
        with pytest.raises(ParseError):
            serial.deserialize_artifact(json.dumps(doc))


def test_floats_must_be_canonical_repr(world):
    for kind, value in world[4]:
        if kind == "report":
            doc = _doc(kind, value)
            assert serial.deserialize_artifact(json.dumps(doc)) == value
            for bad in ("1_0", " nan ", "10", "1e1", "+0.5", "0.50", ".5"):
                doc["q_over_min_order"] = bad
                with pytest.raises(ParseError):
                    serial.deserialize_artifact(json.dumps(doc))


def test_duplicates_are_invariant_errors(world):
    params, pk, rl, sig, artifacts = world
    doc = _doc("rl", rl)
    doc["members"].append(dict(doc["members"][0], member_id="eve"))
    with pytest.raises(InvariantError, match="duplicate member point"):
        serial.deserialize_artifact(json.dumps(doc))
    doc = _doc("rl", rl)
    doc["groups"].append(doc["groups"][0])
    with pytest.raises(InvariantError, match="duplicate department path"):
        serial.deserialize_artifact(json.dumps(doc))
    doc = _doc("params", params)
    doc["gens"][1] = doc["gens"][0]
    with pytest.raises(InvariantError, match="pairwise distinct"):
        serial.deserialize_artifact(json.dumps(doc))
    doc = _doc("tree", dict(artifacts)["tree"])
    siblings = doc["root"]["children"]
    siblings.append(dict(siblings[1], children=[]))
    with pytest.raises(InvariantError, match="duplicate child names"):
        serial.deserialize_artifact(json.dumps(doc))


def test_unknown_and_missing_fields_rejected(world):
    doc = _doc("signature", world[3])
    doc["extra"] = "1"
    with pytest.raises(ParseError):
        serial.deserialize_artifact(json.dumps(doc))
    doc = _doc("cert", world[1])
    del doc["cert"]
    with pytest.raises(ParseError):
        serial.deserialize_artifact(json.dumps(doc))


def test_verify_cert_lets_unexpected_errors_through(world, monkeypatch):
    params, pk = world[0], world[1]
    hierarchy._CERT_VERDICTS.clear()  # else a kept verdict skips the loader

    def broken(text, curve=None):
        raise RuntimeError("a bug, not a bad certificate")
    monkeypatch.setattr(serial, "deserialize_artifact", broken)
    with pytest.raises(RuntimeError):
        verify_cert(params, pk)
    # the error kept no verdict: the same key reaches the loader again
    monkeypatch.undo()
    loads = []
    real = serial.deserialize_artifact

    def counting(text, curve=None):
        loads.append(text)
        return real(text, curve)
    monkeypatch.setattr(serial, "deserialize_artifact", counting)
    assert verify_cert(params, pk) is True
    assert loads == [pk.cert.decode("utf-8")]
    # undecodable certificate bytes are just "no valid cert"
    monkeypatch.undo()
    assert verify_cert(params, dataclasses.replace(pk, cert=b"\xff")) is False


def test_cli_exit_codes_for_mistyped_and_composite_artifacts(tmp_path,
                                                             capsys, world):
    params, pk, rl, sig, _ = world
    files = {"params": params, "cert": pk, "rl": rl, "signature": sig}
    paths = {}
    for kind, value in files.items():
        paths[kind] = tmp_path / f"a.{kind}"
        serial.save_artifact(paths[kind], kind, value)
    msg = tmp_path / "msg"
    msg.write_bytes(MESSAGE)
    argv = ["verify", "--params", str(paths["params"]), "--pub",
            str(paths["cert"]), "--rl", str(paths["rl"]), "--msg-file",
            str(msg), "--sig", str(paths["signature"])]
    assert cli.main(argv) == 0

    doc = _doc("cert", pk)
    doc["member_id"] = 5
    paths["cert"].write_text(json.dumps(doc))
    assert cli.main(argv) == 2
    serial.save_artifact(paths["cert"], "cert", pk)

    doc = _doc("params", params)
    doc["p"] = str(params.p * 3)
    paths["params"].write_text(json.dumps(doc))
    assert cli.main(argv) == 4
    capsys.readouterr()
