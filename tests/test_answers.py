"""Answer pins: the molecules and levels of the level pipelines.

Each case hashes the level, the molecules (d, l, m) in the order the
decomposition lists them, and for bundles the Tor dimensions.  The digests
were recorded before the level path was rebuilt on ``SphereModule``; a
mismatch means a tower, a bundle or a molecule sum changed its answer.
"""

import hashlib
import json

import pytest

from dglevels.field import GF2, GF3, GF5, QQ
from dglevels.module import direct_sum, shift
from dglevels.rational import build_P_tower, tower_level_bounds
from dglevels.spheres import MoleculeId, bundle_level, molecule_model, sphere_level

FIELDS = {"Q": QQ, "F2": GF2, "F3": GF3, "F5": GF5}

BUNDLES = [([4], True, "Q"), ([4], False, "F3"), ([6], False, "Q"),
           ([4, 6], True, "Q"), ([4, 6], False, "F5"), ([4, 8, 12], True, "F3"),
           ([4, 6, 10], False, "Q"), ([4, 6, 6], True, "Q"),
           ([4, 6, 8, 10], True, "F5"), ([4, 6, 8, 10, 12], True, "Q"),
           ([4, 5], True, "F2"), ([4, 7], False, "F2"), ([4, 6, 9], True, "F2")]

SUMS = [(2, ((0, 0, 0), (3, 2, 1)), "Q"), (3, ((1, 1, 0), (2, 0, 1), (4, 3, -2)), "F2"),
        (4, ((0, 2, 0), (0, 2, 3), (5, 1, -1)), "F3"), (5, ((2, 4, 6), (7, 0, -6)), "F5"),
        (6, ((10, 3, 2), (1, 1, 1), (1, 1, 1), (0, 0, 0)), "Q"),
        (4, ((3, 1, 0), (3, 1, 0)), "F2"), (2, ((6, 5, -3), (0, 4, 4), (2, 2, 0)), "F3")]


def _molecules(dec):
    return [[mol.d, mol.l, mol.m] for mol in dec.molecules]


def cases():
    out = {}
    for d in range(3, 7):
        for l in range(1, 6):
            def tower(l=l, d=d):
                res = tower_level_bounds(build_P_tower(l, d))
                return [res.to_json(), _molecules(res.decomposition)]
            out[f"tower[{l},{d}]"] = tower
    for gens, f4, fname in BUNDLES:
        def bundle(gens=gens, f4=f4, fname=fname):
            odd = any(g % 2 for g in gens)
            lvl, dec, dims = bundle_level(gens, f4, FIELDS[fname], formalizable_declared=odd)
            return [lvl, _molecules(dec), sorted(dims.items())]
        out[f"bundle[{','.join(map(str, gens))}]/{fname}/f4={int(f4)}"] = bundle
    for d, parts, fname in SUMS:
        def molecule_sum(d=d, parts=parts, fname=fname):
            models = [shift(molecule_model(MoleculeId(d, l, m), FIELDS[fname], verify=False), k)
                      for l, m, k in parts]
            res = sphere_level(direct_sum(models), d)
            return [res.to_json(), _molecules(res.decomposition)]
        out[f"sum[d={d};{parts}]/{fname}"] = molecule_sum
    return out


def digest(answer):
    return hashlib.sha256(json.dumps(answer).encode()).hexdigest()


DIGESTS = {
    "bundle[4,5]/F2/f4=1":
        "b9a014f41b5492cfb82920f4bcee0bf3834d11558079b4946568f35ef40f2748",
    "bundle[4,6,10]/Q/f4=0":
        "52d4676ad0abe74ad8b06ca38e6086b17d74f18759577b19d4f42250ae63f7db",
    "bundle[4,6,6]/Q/f4=1":
        "2cc0f0f8f15d76faee6967672394f92eac2b2ec56a138cbae172a16d79deead2",
    "bundle[4,6,8,10,12]/Q/f4=1":
        "699abf0d23136b926edb0f743a8e005c781a774493ff83a635924e8cb2ec5c3c",
    "bundle[4,6,8,10]/F5/f4=1":
        "e5c118673982749397c51b3a9e845c1754d28bd5028d582b49d2216d53c3f09a",
    "bundle[4,6,9]/F2/f4=1":
        "cc0bffc5ff12c8a9e26769efe659d0ef1ad0004dc886349214414aa3fc7c11c0",
    "bundle[4,6]/F5/f4=0":
        "af81b2b4e56a734981ac471ecdabf07fb3c699968e0f27eef172facfa61de328",
    "bundle[4,6]/Q/f4=1":
        "fbb4831716c4d7e4c18270412ed8bd8fb1545326a96b426ab3a593115152d0c0",
    "bundle[4,7]/F2/f4=0":
        "307216b11f1794ef7dd5ae1ade4207c93d0a9843c268609c038e056f4d15d9d8",
    "bundle[4,8,12]/F3/f4=1":
        "2873c71521aa7399ba6cd3c63129841cc4628e38c4652cf35eaa0e18c9cb85db",
    "bundle[4]/F3/f4=0":
        "d50f5cc2acbb996e869106101a6d3a101fcad3e6479cc588202c2b1f38e96ae4",
    "bundle[4]/Q/f4=1":
        "bbd36e17dabee38072dbd5efba8c21f64fe32801b6db3bf5e2e22153d8e9128f",
    "bundle[6]/Q/f4=0":
        "65b34db0c75d8ec8c872e3f5ecf6412fa605275cd99c0a3e38dc1238043a6f33",
    "sum[d=2;((0, 0, 0), (3, 2, 1))]/Q":
        "056ee59fde2460cce57b86c529b7c876f3131e7046a502584ca5460cdbe8e737",
    "sum[d=2;((6, 5, -3), (0, 4, 4), (2, 2, 0))]/F3":
        "2280b48c71b0c0f02188ec4369853d7aa3a53a7eacfa19c9c9bd794a2eb045ce",
    "sum[d=3;((1, 1, 0), (2, 0, 1), (4, 3, -2))]/F2":
        "b9c51500a390847486d7e895b342960c2df1280b5219e81e0383d7bc6dcb0682",
    "sum[d=4;((0, 2, 0), (0, 2, 3), (5, 1, -1))]/F3":
        "55e271aac7bf8cb2aac01eb080f27f26a2db32240358b4e04e1cde324aad138a",
    "sum[d=4;((3, 1, 0), (3, 1, 0))]/F2":
        "97d4fa3444e6b3f2f361ce126bd700ada56095ed6ef25c643c8ba5520fd0e5c7",
    "sum[d=5;((2, 4, 6), (7, 0, -6))]/F5":
        "9c7a244fa6a10f72f0b0af37b7319bf02b501b504a8180a4fe4e859c48ab712c",
    "sum[d=6;((10, 3, 2), (1, 1, 1), (1, 1, 1), (0, 0, 0))]/Q":
        "e9ad002c193d1bbab6cb98f422d992cee8715b2cc67afafc90197bed42b74617",
    "tower[1,3]":
        "7a3b35cfdd9b0324394da35da1b2114f77b40538be756d870e54575631156b21",
    "tower[1,4]":
        "13b6ca32d3e7d64edc7358f5be80f831cee158f34157f5a8309ca86d5058399a",
    "tower[1,5]":
        "c45f471e9e824299ba33bb1ff8778f685dd99e6722c134f01158582d10a66f7e",
    "tower[1,6]":
        "916394fc01149e9af866574489e01b41ba810968216c3001d9d14be415a8dae7",
    "tower[2,3]":
        "d3eee86e9e849a04ee93cf35713bf370679990b44c2708bbbc6f9b7373fcee4a",
    "tower[2,4]":
        "5efb127e5d65447c96693488dd17c5b07a13a61aa9ce3fc0a99fc1e7059155d0",
    "tower[2,5]":
        "bca43491535c1ee065dc7b59114916a3311727381d0a9a19fdbe2fe2dea62f6d",
    "tower[2,6]":
        "7fb8f0b0856f5117608953e5e33d024820dde43f9ff5e36fb949639f3fb51154",
    "tower[3,3]":
        "422a1d70388d1df5daa09fe28882c290f8ed637ecf2d830a82ac87d6cd1e9f08",
    "tower[3,4]":
        "33acbf21a2cdc14d0bd40201cd6909034e4f20a7e8d638625c2a0e9da2b602ba",
    "tower[3,5]":
        "f800de5f88dfc56f9622babfc74f5ba7d4ae1874586f7b2bdee2421b41c68ee5",
    "tower[3,6]":
        "3095beb73e22b1be61dabd89f20010f3af3ff71e3f97c9b71a5bb17e9177d9d4",
    "tower[4,3]":
        "eced50051570f58246fc90e03867f73785ea270b9a160de8a3cefca8004e61e2",
    "tower[4,4]":
        "41716cd973b28bdc9f2bddf23877b1e415aeed2632dd1611506ca3adb129db96",
    "tower[4,5]":
        "6f9985b89c0b7844ca79db702bb1ad324e8c02d403ba8b4565b9c43208846fdf",
    "tower[4,6]":
        "7f2ec033eb4a6a8b539dcd415e7e5deb89e42d28278278a80281d43ed8ee1e64",
    "tower[5,3]":
        "b2c45241a40cbfa238340fe423b42b71db829893d08be41d97a4a1323e28c1a9",
    "tower[5,4]":
        "9c12f2c79e5675a0d1425859af065cd0a3cf109e6a6b208c1b4f4d9b98af29a5",
    "tower[5,5]":
        "c0bbcc332f1c8ba482d4f1d60edbf123f3c309bc8354496744681c12657ad91f",
    "tower[5,6]":
        "58ff0d77276c8bb577f1daad2ee3d83bcbc0c6504105d0dcc1fe6a7844fa55eb",
}


@pytest.mark.parametrize("name", sorted(cases()))
def test_level_answer_is_pinned(name):
    assert digest(cases()[name]()) == DIGESTS[name]
