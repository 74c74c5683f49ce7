"""Layout pins: basis order, labels, every matrix entry and both truncation
flags of the complexes the builders produce.

Each case hashes ``complex_to_json`` together with the truncation flags and
the Python types of the stored entries.  The digests were recorded before the
builders were rebuilt on ``graded.assemble``; a mismatch means a builder
changed a basis order, a label, an entry or a truncation flag.  Two were
recorded again when ``resolve.tensor_reach`` became the one rule for a
tensor's reach, with the same complex and one truncation flag moved:
``tor/koszul_sphere`` (26 → 22, the Koszul cap lost a margin of d degrees)
and ``tor/bar_molecule`` (11 → 12, bar reaches N's lowest degree, -1).
``tor/koszul_sphere`` was recorded once more when the periodic Koszul tensor
over H*(S^d) came to be listed through one period past its stable start: it
is the former complex restricted to degrees 0 ... 18 (was 0 ... 21), with
the truncation flag 22 → 19.  ``hom/koszul_to_raw`` was recorded again when
`hom_complex` came to count a truncated source's missing generators: the
same complex, with ``truncated_below`` -10 → -7 (the raw line's top 2 less
the source's truncation 9).
"""

import hashlib
import json

import pytest

from dglevels.algebra import DIVIDED, EXTERIOR, POLYNOMIAL, DGAlgebraPresentation, Generator
from dglevels.field import GF2, GF3, QQ
from dglevels.graded import CochainComplex, DegreeWindow, GradedVectorSpace, complex_to_json
from dglevels.module import DGModulePresentation, direct_sum, hom_complex, shift
from dglevels.resolve import derived_tensor, koszul_resolution_sphere, residue_module
from dglevels.spheres import MoleculeId, molecule_model
from helpers import differential


def sullivan_sphere(field):
    """∧(x₄, ξ₇) with dξ = x²."""
    gens = [Generator("x", 4, POLYNOMIAL), Generator("ξ", 7, EXTERIOR)]
    return DGAlgebraPresentation(field, gens, {"ξ": {(2, 0): field.one()}})


def divided(field):
    """Γ(w₂) ⊗ ∧(u₅) with du = γ₃(w)."""
    gens = [Generator("w", 2, DIVIDED), Generator("u", 5, EXTERIOR)]
    return DGAlgebraPresentation(field, gens, {"u": {(3, 0): field.one()}})


def polynomial(field):
    """K[a₂] ⊗ ∧(b₅) with db = a³."""
    gens = [Generator("a", 2, POLYNOMIAL), Generator("b", 5, EXTERIOR)]
    return DGAlgebraPresentation(field, gens, {"b": {(3, 0): field.one()}})


def sphere(d, field):
    return DGAlgebraPresentation.sphere_cohomology(d, field)


def molecule_sum(d, field, parts):
    return direct_sum([shift(molecule_model(MoleculeId(d, l, m), field, verify=False), k)
                       for l, m, k in parts])


def raw_line(A):
    """u ↦ v under the first generator of A: the raw module K ⊕ Σ^{-|g|}K."""
    f, g = A.field, A.generators[0]
    space = GradedVectorSpace(f, {0: ["u"], g.degree: ["v"]})
    return DGModulePresentation.raw(A, CochainComplex(space, {}), {g.label: {0: [[f.one()]]}})


def free_over(A):
    """Two generators with D(f) = e·g for the first generator g of A."""
    g = A.generators[0]
    return DGModulePresentation.free(A, [("e", 0), ("f", g.degree - 1)],
                                     {"f": {"e": A.generator_poly(g.label)}})


def cases():
    out = {}
    for name, field in (("Q", QQ), ("F2", GF2), ("F3", GF3)):
        for alg_name, make in (("sullivan", sullivan_sphere), ("divided", divided),
                               ("polynomial", polynomial)):
            A = make(field)
            out[f"to_complex/{alg_name}/{name}"] = lambda A=A: A.to_complex(DegreeWindow(-2, 24))
            out[f"expand/{alg_name}/{name}"] = \
                lambda A=A: free_over(A).expand(DegreeWindow(-6, 14)).complex
        out[f"expand/molecules/{name}"] = \
            lambda f=field: molecule_sum(4, f, [(1, 0, 0), (2, 1, -3)]).expand(
                DegreeWindow(-8, 12)).complex
        out[f"expand/koszul/{name}"] = \
            lambda f=field: koszul_resolution_sphere(4, f, cap=16).module.expand(
                DegreeWindow(-1, 14)).complex
        out[f"hom/molecules/{name}"] = \
            lambda f=field: hom_complex(molecule_sum(3, f, [(1, 1, 0), (2, 0, 1)]),
                                        molecule_sum(3, f, [(2, 1, 0)])).complex
        out[f"hom/koszul_to_raw/{name}"] = \
            lambda f=field: hom_complex(koszul_resolution_sphere(2, f, cap=8).module,
                                        raw_line(sphere(2, f)), DegreeWindow(-9, 2)).complex
        out[f"hom/sullivan/{name}"] = \
            lambda f=field: hom_complex(free_over(sullivan_sphere(f)),
                                        free_over(sullivan_sphere(f)),
                                        DegreeWindow(-4, 4)).complex
        out[f"tor/koszul_sphere/{name}"] = \
            lambda f=field: derived_tensor(
                DGModulePresentation.trivial(sphere(4, f), shifts=(0, 3)),
                raw_line(sphere(4, f)), "koszul", DegreeWindow(0, 20)).complex
        out[f"tor/koszul_poly/{name}"] = \
            lambda f=field: derived_tensor(
                residue_module(DGAlgebraPresentation.polynomial(f, [("a", 2), ("b", 4)])),
                raw_line(DGAlgebraPresentation.polynomial(f, [("a", 2), ("b", 4)])),
                "koszul", DegreeWindow(0, 10)).complex
        out[f"tor/bar_sphere/{name}"] = \
            lambda f=field: derived_tensor(residue_module(sphere(3, f)), raw_line(sphere(3, f)),
                                           "bar", DegreeWindow(0, 9)).complex
        out[f"tor/bar_molecule/{name}"] = \
            lambda f=field: derived_tensor(
                residue_module(sphere(4, f)), molecule_model(MoleculeId(4, 2, 1), f),
                "bar", DegreeWindow(-2, 10)).complex
        out[f"tor/bar_divided/{name}"] = \
            lambda f=field: derived_tensor(residue_module(divided(f)),
                                           residue_module(divided(f)),
                                           "bar", DegreeWindow(0, 6)).complex
        out[f"tor/given_molecules/{name}"] = \
            lambda f=field: derived_tensor(
                molecule_sum(4, f, [(2, 0, 0), (1, 1, 2)]),
                molecule_sum(4, f, [(1, 0, 0)]), "given", DegreeWindow(-6, 12)).complex
    return out


def digest(cx):
    types = sorted({type(x).__name__ for mat in differential(cx).values()
                    for row in mat for x in row})
    payload = [complex_to_json(cx), cx.truncated_above, cx.truncated_below, types]
    return hashlib.sha256(json.dumps(payload, ensure_ascii=False).encode()).hexdigest()


DIGESTS = {
    "expand/divided/F2":
        "ef8e8f6f7f20605450af3cb7ffedc202a4e6a721028b7e8a67efe7130ddcdc05",
    "expand/divided/F3":
        "8cd36c84282382c0de3e82d4aa67d827af310cdac99fe35c3dfe21778d1b29a0",
    "expand/divided/Q":
        "b7434247c555b626f7e64fe53686afcb7ba57dff451b4b59a3ea38447957e8ba",
    "expand/koszul/F2":
        "29584559850b04a50e11aae91ee057787848bbd0394e9ccb10d6c193dd19142b",
    "expand/koszul/F3":
        "39887ef705a9031623c2507057936c8e1a93fc10cee220b5e6f174678ee95ab3",
    "expand/koszul/Q":
        "f88dd7c1f13799f79d37eb25c3b851dd28979fcc81e43ec4ed0de23251437d0e",
    "expand/molecules/F2":
        "37e1f400785d46bcb0f9f5b26f3955ae0cb1bea3c201161e084a70886e4f6f5d",
    "expand/molecules/F3":
        "0da9e52e6b3870a5a1b2b599413d3ebf02589a35f62d2b9d902fc95e45a65627",
    "expand/molecules/Q":
        "13ab08339a6925a8fb5dc37346d81d4cc5336e7f809307c1effe589f0704cb59",
    "expand/polynomial/F2":
        "bde2ea5b7da37bea9167a425744f474f8f96afd0363799e0e65b1afc97267559",
    "expand/polynomial/F3":
        "b8a28615fc3eb4c116c7b6c72c1af9e9a7e972b5ac1b450828922bf1eefa7403",
    "expand/polynomial/Q":
        "a2898f9e16a615e36b3c32dcb9e7ca7bf0b4d69a9423a9d85ea74845a80718ac",
    "expand/sullivan/F2":
        "739dd4f4e1fee8e3536c74ffe39056cf54b45f359efe29f9ff874f5244647057",
    "expand/sullivan/F3":
        "a91aef084b47f08ea37dd3a0bc0c8f55b3fee09fd22a0e2940c3a8943e968baa",
    "expand/sullivan/Q":
        "9117962c20bcdc7a5f200eaffe09278e7d737a51bbe27d9ec739c0783842942a",
    "hom/koszul_to_raw/F2":
        "0cd064fa43eff730d8f2a2fdf98376300e649a6229812130cdb0b51d37c37c78",
    "hom/koszul_to_raw/F3":
        "ff2ad14500ca32c64a521b15dbe719e6b1ecb4fb9e92fb6289c951da46f3464e",
    "hom/koszul_to_raw/Q":
        "2c8d6df80672c4a09357c583a139fe58ff5001381bd5515fe5708928350fada7",
    "hom/molecules/F2":
        "d59def0bc58eadde7f5ffafd350c2a3cfdfb03c88a0ca3ac3417976a647d70e5",
    "hom/molecules/F3":
        "a000bf6c94a9f938f406e4f0c4b4b76617a506b28c6a66e2bbd6e07714e9814d",
    "hom/molecules/Q":
        "e6ebc7f5a267bef0c4dea6856db943c3bfeef6cc94f96eedb79cea6c90a16d58",
    "hom/sullivan/F2":
        "0f8dc7852525050e281b7d2ff89dd3df70d2f79a1d1aad7aa0420b254206a040",
    "hom/sullivan/F3":
        "9b32aa38cebd79d13740b71c97625a990aacae5df262cfd97455f443dee308d3",
    "hom/sullivan/Q":
        "1f9715f0dfc58c094cbc56bcd54ddbf880134aec46bcb2a9295cde7bf68412c0",
    "to_complex/divided/F2":
        "8329ecfb277a416145fca7b400601d822816f9c74852dbceedcd55eaf86a9c55",
    "to_complex/divided/F3":
        "c694ace99017d8ef7ce498037dae5e2f428845b16e6b0798ade6bd254750b845",
    "to_complex/divided/Q":
        "feb9b15ce2e976d997339814138d0e519e98eac3355a2c289e7e4ed282882304",
    "to_complex/polynomial/F2":
        "76d77fee8b8481eb70709e73e9244887fc6f4fa5c61bbc4aff6c75ee506c3a3d",
    "to_complex/polynomial/F3":
        "6721d7e4e49a2305bd22808323f4d27180fc5874879fe672446827bb0a4d8410",
    "to_complex/polynomial/Q":
        "f7fe28c517251afabbddd83ca3aa2e351434d82f65060ea24bfd87ee2a25b53a",
    "to_complex/sullivan/F2":
        "8e7bc7f379bedfb06ff51b704864c4d344cc000ca362707af66485ad94034201",
    "to_complex/sullivan/F3":
        "86a04607c2024f40742755da19cf2dbff4ec3ed0fa541a5e87634148dc882f2d",
    "to_complex/sullivan/Q":
        "2fba0563818a2da6799b225c5848e009b4a4814da9c612552d937fb6677b02ac",
    "tor/bar_divided/F2":
        "04aad7d36b7df69e35f969650e211dd1c962d5899ba8c174fd827cd166bababc",
    "tor/bar_divided/F3":
        "e9c1147431066ad8b1a022badabedae2597fc1b302954a2594ea32e21fae59ea",
    "tor/bar_divided/Q":
        "a63cf9121c0fbc1d5948ef7d03e4adbc054381219e79092a439e7d33fc0a23c0",
    "tor/bar_molecule/F2":
        "0ce8c7360e345e942ab2c265ee1adb57b5e4f6415a3216943efbf318a457d8db",
    "tor/bar_molecule/F3":
        "00c30e0a6c7ef0b1d47a4116b8a90b66ee74e74b793ed7a29eb9f89464e3a6f5",
    "tor/bar_molecule/Q":
        "0223a087976ebc6c7c01c22eda3af17ee4dd319c87ae23939891971e4e880215",
    "tor/bar_sphere/F2":
        "09044e8bfab544cde9762baaecf879d1bb9222f7fe9866a8fa51487fc0cd11cb",
    "tor/bar_sphere/F3":
        "393bfe33f47d25b4a9a7cf755cdbd5354a362fc5ad1d44951c90e4e600f80872",
    "tor/bar_sphere/Q":
        "acaf6f54c4e1a7bfe6b6797199ba40adc752aa45b2e7e809765326ae7415853c",
    "tor/given_molecules/F2":
        "08e8be07a3caec5a828d80e59b08acda70e8c2f7f3508d538c9c509def4fab99",
    "tor/given_molecules/F3":
        "5202a308a08744dea8edcbda3df3ec6568aedd509dd6fe292dc4ea0a65967b01",
    "tor/given_molecules/Q":
        "aef59c05b98a6dee861d565deb5e20385ae95fc643f3921a2e1102222848c7dd",
    "tor/koszul_poly/F2":
        "81d2557091d2b6bfad4154a2517e443a4faeeaa6519ce86acc0fb342c30b3438",
    "tor/koszul_poly/F3":
        "fa915e082a61d0ed3f34c0497f74d16a5df8cf17c65a29924ad6f5d39f22e1c3",
    "tor/koszul_poly/Q":
        "ea93babe4b64e482f84f2aec70a093c6c952869a8fcbcec7a3f2f79a17f6139d",
    "tor/koszul_sphere/F2":
        "433296640c1f568e088f849a3dd3753349754b48142a9312c3c2210cecb95f43",
    "tor/koszul_sphere/F3":
        "1c659b799a091450c3ea8d048d44f58534e28b8bb1838cee709a75ea4146e1c1",
    "tor/koszul_sphere/Q":
        "d78041fd34e1eab5d52fecbbe920b6002c502342248414e4be73ffbfb9b32c9d",
}


@pytest.mark.parametrize("name", sorted(cases()))
def test_builder_layout_is_pinned(name):
    cx = cases()[name]()
    assert differential(cx), "case builds no map"
    assert digest(cx) == DIGESTS[name]
