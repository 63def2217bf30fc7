"""XML wire format for swapped object state.

The defining portability property of the paper is that swapped state is
plain XML text: "the receiving device needs no other infrastructure ...
other than being able to receive XML data and store it".  This package
implements the object-graph ⇄ XML codec:

* :mod:`repro.wire.wrappers` — scalar/container values written as
  canonical text;
* :mod:`repro.wire.xmlcodec` — whole swap-cluster encoding, with
  intra-cluster references by oid and outbound references as indexes into
  the cluster's replacement-object array;
* :mod:`repro.wire.canonical` — canonical text + digests for
  store-and-return integrity checks;
* :mod:`repro.wire.scan` — reads canonical text without an XML parser
  (swap-in decode, delta splice, stores' epoch read, and every other
  document: hibernation images, archives, envelopes, replica and push
  documents).
"""

from repro.wire.xmlcodec import (
    ClusterDocument,
    OutRef,
    LocalRef,
    encode_cluster_canonical,
    encode_cluster_stream,
    decode_cluster,
)
from repro.wire.delta import (
    apply_cluster_delta,
    encode_cluster_delta,
    encode_cluster_delta_stream,
)
from repro.wire.wrappers import emit_fields, emit_value
from repro.wire.scan import read_fields
from repro.wire.canonical import (
    canonical_text,
    digest_of_canonical,
    payload_digest,
    verify_payload,
)
from repro.wire.schema import (
    ensure_valid_cluster,
    validate_cluster_text,
    VALUE_TAGS,
)

__all__ = [
    "ClusterDocument",
    "OutRef",
    "LocalRef",
    "encode_cluster_canonical",
    "encode_cluster_stream",
    "decode_cluster",
    "encode_cluster_delta",
    "encode_cluster_delta_stream",
    "apply_cluster_delta",
    "emit_value",
    "emit_fields",
    "read_fields",
    "canonical_text",
    "digest_of_canonical",
    "payload_digest",
    "verify_payload",
    "ensure_valid_cluster",
    "validate_cluster_text",
    "VALUE_TAGS",
]
