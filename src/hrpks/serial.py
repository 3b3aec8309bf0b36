"""Canonical text serialization for every artifact the tool reads or writes.

Documents are JSON with sorted keys and no insignificant whitespace, every
integer rendered as a decimal string (no host numeric type ever touches a
value), and explicit "kind"/"version" fields. Equal values serialize to
identical bytes, which is what revocation-list hashing and certificates
sign.

One table, `_ARTIFACTS`, maps each kind to a codec that drives both
directions. A codec is a (dump, load) pair built from a few field codecs:
`_INT` (canonical decimal string), `_STR`, `_FLOAT` (repr), `_HEX` (bytes
as lower-case hex, "" for none), `_POINT` ("inf" or [x, y]), `_list(codec)` and
`_record(build, fields)`, a JSON object with exactly the named fields,
read from the value's attributes on dump and passed to `build` as keyword
arguments on load. Every type check lives in the load half of these
codecs, so loading raises only ParseError (the text is not a document of
the expected shape) or InvariantError (a well-shaped value breaks an
invariant of the type it builds, or a point is off the supplied curve).
Glue remains only where wire fields do not map one to one onto
attributes: params (p and q feed `CurveFp` and `AuxGroup`), the tree
(paths from nested names) and the relation report (zipped relations and
trivial flags).

Kinds: params, keypair, cert, rl, signature, tree, report.
File extensions by convention: .params .key .pub/.cert .rl .sig .tree .report
"""

import json
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional

from .assumption_lab import OrderReport, RelationReport
from .curve_fp import INF, CurveFp, ModPoint, on_curve_fp
from .errors import InvariantError, ParseError
from .hierarchy import (AuxGroup, DeptNode, Hyperplane, PublicKey, SecretKey,
                        SystemParams, new_root)
from .modmath import is_probable_prime
from .revocation import ConstraintSet, RevocationList, RevokedMember
from .sigma import NonzeroProof, Signature

FORMAT_VERSION = "2"


class _Codec(NamedTuple):
    dump: Callable  # value -> JSON document
    load: Callable  # JSON document -> value, or ParseError / InvariantError


def _shape_error(expected: str, doc):
    got = repr(doc[:40]) if type(doc) is str else type(doc).__name__
    return ParseError(f"expected {expected}, got {got}")


def _text(convert: Callable, expected: str) -> Callable:
    """Load half of a codec for a JSON string read by `convert`, which
    raises ValueError for text it does not accept."""
    def load(doc):
        if type(doc) is str:
            try:
                return convert(doc)
            except ValueError:
                pass
        raise _shape_error(expected, doc)
    return load


def _canonical(parse: Callable) -> Callable:
    """`parse`, accepting only the text that `repr` writes for the value it
    reads, so each value has one spelling: "+5", "007", " 5", "1_0", "-0",
    "1e1" and " nan " are refused."""
    def convert(text: str):
        value = parse(text)
        if repr(value) != text:
            raise ValueError(text)
        return value
    return convert


def _utf8(text: str) -> str:
    text.encode("utf-8")  # UnicodeEncodeError on a lone surrogate (\ud800)
    return text


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


_load_int = _text(_canonical(int), "a canonical decimal string")


def _hex(text: str) -> Optional[bytes]:
    """Bytes from the lower-case, unspaced hex that dump writes, so "AB",
    " ab" and "a b" are refused; "" is no bytes."""
    value = bytes.fromhex(text)
    if value.hex() != text:
        raise ValueError(text)
    return value or None


def _load_point(doc) -> ModPoint:
    if doc == "inf":
        return INF
    if type(doc) is list and len(doc) == 2:
        return ModPoint(_load_int(doc[0]), _load_int(doc[1]))
    raise _shape_error('"inf" or an [x, y] pair', doc)


_INT = _Codec(lambda v: str(int(v)), _load_int)
_STR = _Codec(lambda v: v, _text(_utf8, "a UTF-8 string"))
_FLOAT = _Codec(repr, _text(_canonical(float), "a canonical float string"))
_HEX = _Codec(lambda v: v.hex() if v else "",
              _text(_hex, "a lower-case hex string"))
_POINT = _Codec(lambda v: "inf" if v.is_infinity else [str(v.x), str(v.y)],
                _load_point)
_FLAG = _Codec(lambda v: "1" if v else "0", _text(_flag, '"0" or "1"'))


def _list(item: _Codec) -> _Codec:
    dump, load = item

    def load_list(doc):
        if type(doc) is not list:
            raise _shape_error("a list", doc)
        return tuple([load(v) for v in doc])

    return _Codec(lambda values: [dump(v) for v in values], load_list)


def _record(build: Callable, *fields) -> _Codec:
    """A JSON object with exactly the given fields, each (wire name, codec)
    or (wire name, codec, source). The source is the attribute the value is
    read from and the keyword `build` receives (default: the wire name), or
    a getter function, in which case `build` receives the wire name."""
    dumps, loads = [], []
    for wire, (dump, load), *source in fields:
        source = source[0] if source else wire
        if isinstance(source, str):
            dumps.append((wire, attrgetter(source), dump))
            loads.append((wire, source, load))
        else:
            dumps.append((wire, source, dump))
            loads.append((wire, wire, load))
    wires = frozenset(wire for wire, *_ in fields)

    # plain loops: cheaper than comprehensions here
    def dump_record(value):
        doc = {}
        for wire, get, dump in dumps:
            doc[wire] = dump(get(value))
        return doc

    def load_record(doc):
        if type(doc) is not dict or doc.keys() != wires:
            raise _shape_error(f"an object with fields {sorted(wires)}", doc)
        kwargs = {}
        for wire, kw, load in loads:
            kwargs[kw] = load(doc[wire])
        return build(**kwargs)

    return _Codec(dump_record, load_record)


_INTS = _list(_INT)
_HYPERPLANE = _Codec(lambda hp: _INTS.dump(hp.coeffs),
                     lambda doc: Hyperplane(_INTS.load(doc)))

_PUBLIC_KEY = _record(PublicKey, ("point", _POINT), ("member_id", _STR),
                      ("dept", _STR), ("cert", _HEX))

_KEYPAIR = _record(
    lambda sk, pk: (sk, pk),
    ("sk", _record(SecretKey, ("x", _INTS), ("member_id", _STR),
                   ("dept", _STR)), itemgetter(0)),
    ("pk", _PUBLIC_KEY, itemgetter(1)))


def _build_params(curve_id, p, q, curve, aux, **fields) -> SystemParams:
    try:
        curve = CurveFp(p, **curve)
    except ValueError as e:  # p is not prime
        raise InvariantError(str(e)) from None
    # `setup` checks q for the parameters it builds; CurveFp checks p
    if not is_probable_prime(q):
        raise InvariantError("q is not prime")
    return SystemParams(curve_id=curve_id, curve=curve, p=p, q=q,
                        aux=AuxGroup(q=q, **aux), **fields)


_PARAMS = _record(
    _build_params, ("curve_id", _STR), ("p", _INT),
    ("curve", _record(dict, *((a, _INT)
                              for a in ("a1", "a2", "a3", "a4", "a6")))),
    ("q", _INT), ("r", _INT), ("gens", _list(_POINT)),
    ("aux", _record(dict, ("rho", _INT), ("g", _INT), ("h", _INT))),
    ("l_c", _INT), ("l_s", _INT), ("gm_pub", _PUBLIC_KEY))

_RL = _record(
    RevocationList, ("rl_version", _INT, "version"),
    ("members", _list(_record(RevokedMember, ("point", _POINT),
                              ("member_id", _STR)))),
    ("groups", _list(_record(ConstraintSet, ("path", _STR),
                             ("constraints", _list(_HYPERPLANE))))))

_SIGNATURE = _record(
    Signature, ("c", _INT, "challenge"), ("s", _INTS),
    ("commitments", _INTS), ("commitment_responses", _INTS),
    ("nonzero_proofs", _list(_record(NonzeroProof, ("sw", _INT),
                                     ("su", _INT)))),
    ("retry", _INT), ("rl_version", _INT))


def _dump_node(node: DeptNode):
    doc = {"name": node.path.rsplit("/", 1)[-1],
           "children": [_dump_node(c)
                        for c in sorted(node.children, key=lambda n: n.path)]}
    if node.level >= 1:
        doc["hyperplane"] = _HYPERPLANE.dump(node.constraints[-1])
    return doc


def _dump_root(root: DeptNode):
    if root.level != 0:
        raise ValueError("tree serialization starts at the root")
    return _dump_node(root)


_ROOT_FIELDS = frozenset(("name", "children"))
_NODE_FIELDS = _ROOT_FIELDS | {"hyperplane"}


def _load_node(doc, parent: Optional[DeptNode] = None) -> DeptNode:
    fields = _ROOT_FIELDS if parent is None else _NODE_FIELDS
    if type(doc) is not dict or doc.keys() != fields:
        raise _shape_error(f"a tree node with fields {sorted(fields)}", doc)
    name = _STR.load(doc["name"])
    if parent is None:
        if name:
            raise InvariantError("the tree root must have an empty name")
        node = new_root()
    else:
        hyperplane = _HYPERPLANE.load(doc["hyperplane"])
        try:
            node = parent.attach(name, hyperplane)
        except ValueError as e:
            raise InvariantError(str(e)) from e
    children = doc["children"]
    if type(children) is not list:
        raise _shape_error("a list of child nodes", children)
    for child in children:
        _load_node(child, node)
    return node


_TREE = _record(lambda root: root,
               ("root", _Codec(_dump_root, _load_node), lambda root: root))


def _relation_report(relations, **fields) -> RelationReport:
    return RelationReport(relations=tuple(x for x, _ in relations),
                          trivial_flags=tuple(t for _, t in relations),
                          **fields)


_REPORTS = {
    "relations": (RelationReport, _record(
        _relation_report, ("params_digest", _STR), ("method", _STR),
        ("bound", _INT),
        ("relations", _list(_record(lambda x, trivial: (x, trivial),
                                    ("x", _INTS, itemgetter(0)),
                                    ("trivial", _FLAG, itemgetter(1)))),
         lambda r: zip(r.relations, r.trivial_flags)),
        ("orders", _INTS), ("q_over_min_order", _FLOAT),
        ("wall_time", _FLOAT))),
    "orders": (OrderReport, _record(
        OrderReport, ("params_digest", _STR), ("orders", _INTS),
        ("hasse_lo", _INT), ("hasse_hi", _INT), ("q_over_min_order", _FLOAT),
        ("wall_time", _FLOAT))),
}


def _dump_report(report):
    for report_type, (cls, codec) in _REPORTS.items():
        if isinstance(report, cls):
            return {"report_type": report_type, **codec.dump(report)}
    raise TypeError(f"not a report: {type(report).__name__}")


def _load_report(doc):
    report_type = doc.pop("report_type", None)
    if type(report_type) is not str or report_type not in _REPORTS:
        raise ParseError(f"unknown report_type {report_type!r:.40}")
    return _REPORTS[report_type][1].load(doc)


# kind -> (codec, the points a `curve` argument checks, what they are)
_ARTIFACTS = {
    "params": (_PARAMS, None, ""),
    "keypair": (_KEYPAIR, lambda pair: [pair[1].point], "public key"),
    "cert": (_PUBLIC_KEY, lambda pk: [pk.point], "public key"),
    "rl": (_RL, lambda rl: [m.point for m in rl.members], "revoked member"),
    "signature": (_SIGNATURE, None, ""),
    "tree": (_TREE, None, ""),
    "report": (_Codec(_dump_report, _load_report), None, ""),
}


def serialize_artifact(kind: str, value) -> str:
    """Canonical text for a value of the given kind (byte-stable)."""
    try:
        codec = _ARTIFACTS[kind][0]
    except KeyError:
        raise ValueError(f"unknown artifact kind {kind!r}") from None
    doc = codec.dump(value)
    doc["kind"] = kind
    doc["version"] = FORMAT_VERSION
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def deserialize_artifact(text: str, curve: Optional[CurveFp] = None):
    """Parse a canonical document back into its value.

    Raises ParseError for text that is not a well-formed document of its
    kind, and InvariantError for values that break an invariant, including,
    when `curve` is supplied, any point the document carries that fails the
    curve equation. Nothing else escapes.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"not valid artifact text: {e}") from None
    if type(doc) is not dict or "kind" not in doc:
        raise ParseError("artifact documents need a 'kind' field")
    kind, version = doc.pop("kind"), doc.pop("version", None)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version!r:.40}")
    if type(kind) is not str or kind not in _ARTIFACTS:
        raise ParseError(f"unknown artifact kind {kind!r:.40}")
    codec, points, what = _ARTIFACTS[kind]
    try:
        value = codec.load(doc)
    except RecursionError:
        raise ParseError(f"{kind} document nests too deeply") from None
    if curve is not None and points is not None:
        for pt in points(value):
            if not on_curve_fp(curve, pt):
                raise InvariantError(
                    f"{what} point {pt} fails the curve equation")
    return value


def load_artifact(path, curve: Optional[CurveFp] = None):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text: {e}") from None
    return deserialize_artifact(text, curve=curve)


def save_artifact(path, kind: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_artifact(kind, value))
        fh.write("\n")
