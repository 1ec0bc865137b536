"""Frozen digests of short seeded eil51 runs, one per indicator x selection
x orientation x seeding setting.

Each digest hashes every record (surface points, both HVs, best reward),
the final population's tours, values and front points, ``best_tour`` and
``best_plan``.  It leaves out ``Individual.front.tour``, which names an
orientation, not a result.  A change that is meant to keep ``run_ibea``'s
behaviour must keep every digest; one that changes it on purpose re-freezes
them and says why.

Two seedings cover the two ways LHV scores a front.  At 0 and 50 seeding
generations every eil51 surface point has a negative reward, so the
surface hypervolume is 0 and LHV falls back to LSC: those LHV digests
equal their LSC twins.  At 1000 seeding generations the surface has
positive rewards, so the LHV digests pin LHV's own hypervolume-share
scoring.  To print the current table::

    PYTHONPATH=src python tests/test_golden_settings.py
"""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from conftest import INSTANCES, run_with_surfaces

from ttpsolve.evolve import SELECTION_SCHEMES, IbeaConfig
from ttpsolve.fronts import INDICATOR_KINDS
from ttpsolve.instance_io import parse_instance

SETTINGS = list(itertools.product(INDICATOR_KINDS, SELECTION_SCHEMES, (False, True), (0, 50, 1000)))

GOLDEN_SETTINGS = {
    ('lsc', 'exp', False, 0): "735bffd13c0b42a61f33f223e370a7a98bffc0f6b2abe9596786b8dc193047af",
    ('lsc', 'exp', False, 50): "35360035c6b9cb6ec1f22fbbc2cd9ed06cdbb61d56c2dc48275cc3ede754748b",
    ('lsc', 'exp', False, 1000): "6e6f4cb4201e206500f9bfdea829aa40aff070cd024242d7abfbdc82dbbf776a",
    ('lsc', 'exp', True, 0): "864e6aa78cf3994641ecc5f5b1c654ae84584b51eaf2b36ef5f1612dfd67da03",
    ('lsc', 'exp', True, 50): "e5ca5d9f7451ae4670a58e6cff5ea8eb197c2c0ce893d01a6d6bd91c0073da3b",
    ('lsc', 'exp', True, 1000): "6dfe885092e010b433cd44dbffe375a28cb7fe54468e157d375b8907845c458f",
    ('lsc', 'iq', False, 0): "2a274c3b1e25df16301f54120935d561c37ebb88772b0c2701608fd85db5df46",
    ('lsc', 'iq', False, 50): "7b7fe6b518ba82e8b60c6a9090128341e7c4e348d483a1d46ececfe2eaf08e2c",
    ('lsc', 'iq', False, 1000): "6e6f4cb4201e206500f9bfdea829aa40aff070cd024242d7abfbdc82dbbf776a",
    ('lsc', 'iq', True, 0): "a25014242d81b6d81a4b9eace36e82f6819f9791a536f6355d3344e4ce75fa51",
    ('lsc', 'iq', True, 50): "4ee52903243c407ac47e24a9456a2cf38d775d171c95d29cb47c014270f73c36",
    ('lsc', 'iq', True, 1000): "56db2087ec05c89349669c8e14142bcae1776b41fe2d41f56fb7401e09d7e5df",
    ('lsc', 'har', False, 0): "e0a54c336e6b64c119a02441d49592c6c3bc94dca5aa1dc61d3cc56606564758",
    ('lsc', 'har', False, 50): "68af85447c99dc475a88c1d7e74bcec4d92d340b9d6a14b0e96487a9763c4de4",
    ('lsc', 'har', False, 1000): "9a77ff8ddd3201ff7d84bc25bbd9dd3997a50f212c060abc4bc8269127da9c2d",
    ('lsc', 'har', True, 0): "04ce9f9dd554dd97024c868bef5bafcd3a8a0cf29f7cc62c918127d398997c6d",
    ('lsc', 'har', True, 50): "bfbac1590d1c44f5cf21121a55cf36de321dc24d3a375138bff4569343d457a7",
    ('lsc', 'har', True, 1000): "5f33320e68f03c285988f96b347c658c82d0daedb77446e3a421a3fa8fa3c55f",
    ('lsc', 'fps', False, 0): "026182dc683ac612236f26f95e33efa84c64eda549f2748798a00c7305e15193",
    ('lsc', 'fps', False, 50): "4c6c0759cbbc76f07e1e84ea79df086284f3a55a5c4aaf5be482c4d1d38f2369",
    ('lsc', 'fps', False, 1000): "62d4c9a9cd5abc82f6f8461d309a705f31775d468776d3a8519b62b553d8d5b6",
    ('lsc', 'fps', True, 0): "ae6a9db6a8fa02754502d29274130db3bae5fa4424ecb4be50b6edea07e04be5",
    ('lsc', 'fps', True, 50): "d3138aaf821d1716c4965e575874ee36f7b5f63ee541345cb22290c08ed99a69",
    ('lsc', 'fps', True, 1000): "6baaca45f2c83eb4aa5afc08a30d3dffe329d848c384ef9ac915b45395d7e04b",
    ('lsc', 'ts', False, 0): "021030333ff65724918070cd3e6ffab000c4a93c8d258512a46c699a5c012e79",
    ('lsc', 'ts', False, 50): "d5a36a35a1c9112bf84f25360f80f02577c4b8a3947ea4c96701c36d74c74f34",
    ('lsc', 'ts', False, 1000): "c5515fce0ea3ae9ffc200f82ab4ca1bca40fca64364b2f33044195468947dde5",
    ('lsc', 'ts', True, 0): "324a113f1ed63de428f6419a37efd7ed17d56f63303064a2c108eb2b7d9780e9",
    ('lsc', 'ts', True, 50): "8257e050e9bb016f08c5647598cbe1fd12d85c0fdc55d8ac6a84f27c3241eef7",
    ('lsc', 'ts', True, 1000): "8512678ec10cde186e26bfe9ccd0fbb0165647d15c0c39b12311df33b1883577",
    ('lsc', 'as_bst', False, 0): "63fe8e3a81aeaefe84d5c853b0f7eae6a1c9d445e150163fcb6484de6fef1183",
    ('lsc', 'as_bst', False, 50): "5e09fc53f2c664bebb564621c9c1f727299c25e0ba2a5032f1506c35b33f798a",
    ('lsc', 'as_bst', False, 1000): "b869298d7504d84999e3fa69abc1ae85db4e86d72769c827784fb7a365f13d99",
    ('lsc', 'as_bst', True, 0): "defd85427c54c381f3238d11bf4fa2b9c58acc8850d08bee861049feb07ec27d",
    ('lsc', 'as_bst', True, 50): "60dedfa8d08e5ad52734d10df1e4a972256184c0d62dbec4bb8e0332c04f7df5",
    ('lsc', 'as_bst', True, 1000): "07da99e3f7db0f47c4e3fe73fb23c74ee3e08e8ea8eabb8c8394f31e30838b6e",
    ('lsc', 'as_ext', False, 0): "cc156bb8c370fef2ceb25e9b3425edfb600d11b17a79d3a9d31fed4c92999f27",
    ('lsc', 'as_ext', False, 50): "5dbc209653bc21fc716ad65dc606829ef2b668cfdbdc672f17a91aacad1e32c0",
    ('lsc', 'as_ext', False, 1000): "b0a552f247280fe7066cc004e41b4a306be390890360a1ec3feeb7d283526780",
    ('lsc', 'as_ext', True, 0): "f2777b008db7f0b51b7745e4daa3d7c295a4e4d40a66bff56adb096f3f0038fa",
    ('lsc', 'as_ext', True, 50): "ff84a1b52b8e81685c21b72f5d5eaee947665f9d8a4d30edf6c07781107fe9f0",
    ('lsc', 'as_ext', True, 1000): "21afe329097c605d48aa30aef6932810658f1753b920644f953623a6174fcecb",
    ('lsc', 'uar', False, 0): "ed44d52c60da7501a1bef8442d38032afe1dd5e9f06b627c0f416d315064090b",
    ('lsc', 'uar', False, 50): "718a5c5f6bb7ee857a3655a1581b6201362f250a0b3e2dca7c66c4e6c3341629",
    ('lsc', 'uar', False, 1000): "c800f840ce135976c2c2cdcbc059b6e464146e0900d926082e8d516ca24bb18f",
    ('lsc', 'uar', True, 0): "0a43dc3e5f01e19ad09e1d6bad7e07c3874644164b3a4f8673009b8f6010a32e",
    ('lsc', 'uar', True, 50): "3bd5ca32acab9ec2ffbfa622c32246127d5c3c61e68059a86d0721d313ad015d",
    ('lsc', 'uar', True, 1000): "79ce3b2e24e4c50de5f11b7468f38474c48e03f556ce820c21cd7de504c35cf6",
    ('lhv', 'exp', False, 0): "735bffd13c0b42a61f33f223e370a7a98bffc0f6b2abe9596786b8dc193047af",
    ('lhv', 'exp', False, 50): "35360035c6b9cb6ec1f22fbbc2cd9ed06cdbb61d56c2dc48275cc3ede754748b",
    ('lhv', 'exp', False, 1000): "8857f6d85d70c75d1fe8604abd9a7bc8fdbfeebd694e7ff7647669b226ce4655",
    ('lhv', 'exp', True, 0): "864e6aa78cf3994641ecc5f5b1c654ae84584b51eaf2b36ef5f1612dfd67da03",
    ('lhv', 'exp', True, 50): "e5ca5d9f7451ae4670a58e6cff5ea8eb197c2c0ce893d01a6d6bd91c0073da3b",
    ('lhv', 'exp', True, 1000): "0cb6681bbf3b5a168dda1994fec824999f3085bb804d43d4f4105ff1ee72b940",
    ('lhv', 'iq', False, 0): "2a274c3b1e25df16301f54120935d561c37ebb88772b0c2701608fd85db5df46",
    ('lhv', 'iq', False, 50): "7b7fe6b518ba82e8b60c6a9090128341e7c4e348d483a1d46ececfe2eaf08e2c",
    ('lhv', 'iq', False, 1000): "f94c1129bec80f1ffe98ef7ae44a68f45897ac89aefa81f03f3981191b23922f",
    ('lhv', 'iq', True, 0): "a25014242d81b6d81a4b9eace36e82f6819f9791a536f6355d3344e4ce75fa51",
    ('lhv', 'iq', True, 50): "4ee52903243c407ac47e24a9456a2cf38d775d171c95d29cb47c014270f73c36",
    ('lhv', 'iq', True, 1000): "c46412a5bdde9ffd10687d84571332548e1df3e996f53aa2a57463def065f045",
    ('lhv', 'har', False, 0): "e0a54c336e6b64c119a02441d49592c6c3bc94dca5aa1dc61d3cc56606564758",
    ('lhv', 'har', False, 50): "68af85447c99dc475a88c1d7e74bcec4d92d340b9d6a14b0e96487a9763c4de4",
    ('lhv', 'har', False, 1000): "e4d3f28d74b660f202e0083425b6d552921973d7f5883c1e283f50ce7bedb907",
    ('lhv', 'har', True, 0): "04ce9f9dd554dd97024c868bef5bafcd3a8a0cf29f7cc62c918127d398997c6d",
    ('lhv', 'har', True, 50): "bfbac1590d1c44f5cf21121a55cf36de321dc24d3a375138bff4569343d457a7",
    ('lhv', 'har', True, 1000): "cdb6c877520c580961ea8b10b8d516db79f50ea444f920252aee024f581a82ed",
    ('lhv', 'fps', False, 0): "026182dc683ac612236f26f95e33efa84c64eda549f2748798a00c7305e15193",
    ('lhv', 'fps', False, 50): "4c6c0759cbbc76f07e1e84ea79df086284f3a55a5c4aaf5be482c4d1d38f2369",
    ('lhv', 'fps', False, 1000): "245cbc5625cc341a1516e9a90385c0b669a2f7c532aefc4697bfaa6c7e80e089",
    ('lhv', 'fps', True, 0): "ae6a9db6a8fa02754502d29274130db3bae5fa4424ecb4be50b6edea07e04be5",
    ('lhv', 'fps', True, 50): "d3138aaf821d1716c4965e575874ee36f7b5f63ee541345cb22290c08ed99a69",
    ('lhv', 'fps', True, 1000): "b9390e22471df9ccf1c450e6dfddf0cdec9fe2b711745c4c29afd95581b367e1",
    ('lhv', 'ts', False, 0): "021030333ff65724918070cd3e6ffab000c4a93c8d258512a46c699a5c012e79",
    ('lhv', 'ts', False, 50): "d5a36a35a1c9112bf84f25360f80f02577c4b8a3947ea4c96701c36d74c74f34",
    ('lhv', 'ts', False, 1000): "3cc54aed9f2fdffd3bb3a645dd4c7e0e19f381f4a3d5036cd0759df9d95583c4",
    ('lhv', 'ts', True, 0): "324a113f1ed63de428f6419a37efd7ed17d56f63303064a2c108eb2b7d9780e9",
    ('lhv', 'ts', True, 50): "8257e050e9bb016f08c5647598cbe1fd12d85c0fdc55d8ac6a84f27c3241eef7",
    ('lhv', 'ts', True, 1000): "01234a5cfb2c361a2dce39065fe749965fc289db039afdff3e8cdb49dee4b0cf",
    ('lhv', 'as_bst', False, 0): "63fe8e3a81aeaefe84d5c853b0f7eae6a1c9d445e150163fcb6484de6fef1183",
    ('lhv', 'as_bst', False, 50): "5e09fc53f2c664bebb564621c9c1f727299c25e0ba2a5032f1506c35b33f798a",
    ('lhv', 'as_bst', False, 1000): "1e18dba05e405c1019f2dcc6e59ea8b360c46a088bb3069c97bbe890aaf36867",
    ('lhv', 'as_bst', True, 0): "defd85427c54c381f3238d11bf4fa2b9c58acc8850d08bee861049feb07ec27d",
    ('lhv', 'as_bst', True, 50): "60dedfa8d08e5ad52734d10df1e4a972256184c0d62dbec4bb8e0332c04f7df5",
    ('lhv', 'as_bst', True, 1000): "0515c34438038f86789f8d4bd9752a437a8ae4fa053a821a144efc4f05b2309c",
    ('lhv', 'as_ext', False, 0): "cc156bb8c370fef2ceb25e9b3425edfb600d11b17a79d3a9d31fed4c92999f27",
    ('lhv', 'as_ext', False, 50): "5dbc209653bc21fc716ad65dc606829ef2b668cfdbdc672f17a91aacad1e32c0",
    ('lhv', 'as_ext', False, 1000): "bc75a7092c55b7d5f222d21208535f69b2dc52f634314543790b173dc49b7073",
    ('lhv', 'as_ext', True, 0): "f2777b008db7f0b51b7745e4daa3d7c295a4e4d40a66bff56adb096f3f0038fa",
    ('lhv', 'as_ext', True, 50): "ff84a1b52b8e81685c21b72f5d5eaee947665f9d8a4d30edf6c07781107fe9f0",
    ('lhv', 'as_ext', True, 1000): "b6fed8b8bf03e18da783642e6054083cfa5fa19566135d58dbab45bfdbb24e33",
    ('lhv', 'uar', False, 0): "ed44d52c60da7501a1bef8442d38032afe1dd5e9f06b627c0f416d315064090b",
    ('lhv', 'uar', False, 50): "718a5c5f6bb7ee857a3655a1581b6201362f250a0b3e2dca7c66c4e6c3341629",
    ('lhv', 'uar', False, 1000): "d86a2d8865be703e8b13879e7f7b30e67fb0aeff252b5b4575a14c646fabbe7e",
    ('lhv', 'uar', True, 0): "0a43dc3e5f01e19ad09e1d6bad7e07c3874644164b3a4f8673009b8f6010a32e",
    ('lhv', 'uar', True, 50): "3bd5ca32acab9ec2ffbfa622c32246127d5c3c61e68059a86d0721d313ad015d",
    ('lhv', 'uar', True, 1000): "bf9bf21ca35103cda039a3ceec446f643c3ca3bdb5c96623a10512b3ef148973",
}


@functools.cache
def _eil51():
    return parse_instance((INSTANCES / "eil51_n50_uncorr.ttp").read_text())


def run_digest(indicator, selection, both, seeding):
    """sha256 of one run at mu = lambda = 10 and 5 generations, seed 1."""
    res, surfaces = run_with_surfaces(_eil51(), IbeaConfig(
        mu=10, lam=10, generations=5, seed=1, indicator=indicator, selection=selection,
        both_orientations=both, seeding_generations=seeding))
    digest = hashlib.sha256()

    def put(values, dtype=np.float64):
        digest.update(np.asarray(values, dtype).tobytes())

    for rec, points in zip(res.records, surfaces, strict=True):
        put([rec.generation, rec.population_hv, rec.best_reward, rec.archive_hv])
        put(points)
    for ind in res.final_population:
        put(ind.tour, np.int64)
        put([ind.value])
        put(ind.front.rewards)
        put(ind.front.weights, np.int64)
    put(res.best_tour, np.int64)
    put(res.best_plan, np.int64)
    return digest.hexdigest()


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: "-".join(map(str, s)))
def test_run_ibea_golden_digest(setting):
    assert run_digest(*setting) == GOLDEN_SETTINGS[setting]


def test_lhv_digests_differ_from_lsc_at_a_positive_surface():
    """At seeding 1000 no LHV digest equals its LSC twin: LHV's own scoring
    ran.  The digest test above ties each table entry to a run."""
    pairs = [(digest, GOLDEN_SETTINGS[("lsc", *rest)])
             for (indicator, *rest), digest in GOLDEN_SETTINGS.items()
             if indicator == "lhv" and rest[-1] == 1000]
    assert len(pairs) == 16
    assert all(lhv != lsc for lhv, lsc in pairs)


if __name__ == "__main__":
    print("GOLDEN_SETTINGS = {")
    for setting in SETTINGS:
        print(f"    {setting!r}: \"{run_digest(*setting)}\",")
    print("}")
