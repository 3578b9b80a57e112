"""The snapshot payload format's numbers, pinned.

Sizes feed every transfer and memcpy charge, and checksums decide which
copy a restore trusts, so the encoding must not drift: each payload kind a
GML object saves (``payload_kinds.KINDS``) and a parity block's bare
``uint8`` array keep their ``payload_nbytes``, their CRC and the CRC of
their corrupted copy exactly.
"""

import numpy as np

from repro.util import payload_nbytes
from repro.util.checksum import corrupt_payload, payload_checksum
from tests.resilience.payload_kinds import KINDS

#: Per kind, ``(payload_nbytes, payload_checksum, checksum of the
#: corrupt_payload copy)`` at index 0, 1, 2, 3.
PINNED = {
    "vector": ((128, 0x5EB41C87, 0xA2E6DC7F), (128, 0xFE57146C, 0x0205D494),
               (128, 0xE287B904, 0x1ED579FC), (128, 0x4C0CE75B, 0xB05E27A3)),
    "dense": ((160, 0x6F9F48B6, 0x0743336C), (160, 0xCCAF6E47, 0xA473159D),
              (160, 0x12BBD07F, 0x7A67ABA5), (160, 0x560B8C0A, 0x3ED7F7D0)),
    "csr": ((104, 0x65818769, 0xE28A31FB), (168, 0x000243AC, 0x9E4D8201),
            (232, 0x711A3AB7, 0xD2818436), (104, 0x65818769, 0xE28A31FB)),
    "dense-blocks": ((464, 0x1AB9CABA, 0x30EE985A), (464, 0x3C9A1868, 0x16CD4A88),
                     (464, 0x1ADE5089, 0x30890269), (464, 0xA2959331, 0x88C2C1D1)),
    "csr-blocks": ((240, 0x73843D9B, 0xC38C2DFA), (600, 0x3F40C958, 0x040CDEC4),
                   (336, 0x1035E5D8, 0xB01550F2), (488, 0x7E0CBF0A, 0x96823009)),
    "uint8-ndarray": ((74, 0xBF24CEDD, 0x5E6319C9),),
}


def _numbers(p):
    return payload_nbytes(p), payload_checksum(p), payload_checksum(corrupt_payload(p))


def test_sizes_and_checksums_are_pinned():
    payloads = {name: [make(i) for i in range(4)] for name, make in KINDS.items()}
    payloads["uint8-ndarray"] = [np.arange(10, dtype=np.uint8)]
    assert {name: tuple(map(_numbers, kind)) for name, kind in payloads.items()} == PINNED
