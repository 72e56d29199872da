"""Pinned exit codes and stdout digests of representative CLI reports.

Reports are deterministic for fixed inputs, flags and seed, so a change that
only restructures the code must leave every entry below as it is. An entry
changes only together with an intended, documented change of that report.

The cases cover every command on zoo rings in both output modes, the three
reference-class forms (declared default, ``--omega``, ``--omegas``), strict
and boundary setups, and exit codes 0, 1 and 2. File-addressed cases read
bundles written into a fresh working directory under fixed relative names,
so the paths that appear in reports do not depend on the machine.
"""

import hashlib
import json

import pytest

from hodgecs import zoo
from hodgecs.bundle import serialize_ring_bundle
from hodgecs.cli import main

CASES = [
    (('zoo',), 0, "df5db958d7525e1e050e94684fecc18b747f94c23a6a4cd866f880e588751fcf"),
    (('zoo', 'flag3', '--output', 'json'), 0, "f92b9fefe61c4e81cb8abe3d3142da0813d01eb68736419c2753175708eee003"),
    (('info', 'zoo:blp4'), 0, "01ed820cff6deacddfd539abd20e789d43eb1fa7b56d933f238e551bcf48661d"),
    (('info', 'zoo:quadric4', '--output', 'json'), 0, "586b039de34428a77d5330087890708889e3b9ee724391812a9304d1938a5456"),
    (('info', 'zoo:nothere'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('validate', 'zoo:flag3'), 0, "00b241c679e164656e40e148370cea1c3eb6b709c821a0f5dbd12ab069c313d6"),
    (('validate', 'zoo:blp4', '--output', 'json'), 0, "a90115b90fea28287b2e92dcb3238e8ac8e10a3d9e688182c8131c79138e66d2"),
    (('validate', 'blp4.json'), 0, "2b87b26a6c52098c5749bd946a9e07e3781528cf486a04fbcf0532c68090f35d"),
    (('validate', 'blp4.json', '--output', 'json'), 0, "a90115b90fea28287b2e92dcb3238e8ac8e10a3d9e688182c8131c79138e66d2"),
    (('validate', 'degenerate.json'), 1, "616c3fec9221e9a6db02756c880342081ac2e0f91839ffec0686c21c4ea8ecbc"),
    (('validate', 'degenerate.json', '--output', 'json'), 1, "6c152a603fff07d635dd8a2dcd8cc5a95dd4a328e21dc2408d9d85107e091c77"),
    (('validate', 'unknown-field.json', '--output', 'json'), 1, "f5a73dd4cf07deeae8b87c8944a06cafa58d21c76c181a4bc815a636df518cf7"),
    (('validate', 'broken.json'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('info', 'blp4.json', '--output', 'json'), 0, "a9f44c3f96fe405776ef05605262897cff139db9532a442c09a7ce9ad20941bb"),
    (('export', 'zoo:p1xp2'), 0, "7dd0bcd39b0eb1892e8219cb356e7d2a81f0691b8ed9587ad9c6d6d60df0baba"),
    (('export', 'blp4.json', '--output', 'json'), 0, "1eaf39f645f12bcfbd2c611a7e1c243d2f4368f47f4b2156f4b187775d349429"),
    (('signature', 'zoo:p4', '-p', '1', '--output', 'json'), 0, "d769fb8606ee2c58bbbf617ad5553f24a447ce4f6dcf7947fe767856f95681ae"),
    (('signature', 'zoo:blp4', '-p', '1'), 0, "eda18b741c80ff438972241d9346f417d6720cf2721b15f6f73f729b708066d4"),
    (('signature', 'zoo:blp4', '-p', '1', '--omegas', 'sample:omega;sample:omega2', '--output', 'json'), 0, "972dcb17f8bf00b049c9319fa028428f968fe355edd75efbdac17e92ecd2487b"),
    (('signature', 'zoo:blp4', '-p', '1', '--omegas', 'sample:omega', '--omegas', '2*H-1*E'), 0, "eda18b741c80ff438972241d9346f417d6720cf2721b15f6f73f729b708066d4"),
    (('signature', 'zoo:blp4', '-p', '1', '--omegas', 'sample:omega'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('signature', 'zoo:flag3', '-p', '1', '--omega', 'sample:w21'), 0, "120eb73b1169a969b042c73deeb7c98459d492f474360b6248d76c2ef6d65742"),
    (('signature', 'zoo:p1xp2', '-p', '1', '--omega', '1*a', '--nef', '--output', 'json'), 0, "3c1de57fa64e72ae4ece3bbb42de3898ce444d09e6360fd4bc489720036a9577"),
    (('decompose', 'zoo:p1xp1', '-p', '1', '--alpha', '3*a+1*b', '--omega', 'sample:omega', '--output', 'json'), 0, "61f4c66fab0d64d9703fc7726158b2c522ffb2d2789fe9ee7d440d05f8396dd6"),
    (('decompose', 'zoo:blp4', '-p', '2', '--alpha', '6*H^2+9*E^2', '--omega', 'sample:omega'), 0, "2362a61254eb64f23047872e6ae7b789c69af1f8698d0b094b4d259a9cdcbe3f"),
    (('decompose', 'zoo:blp4', '-p', '1', '--alpha', '1*H+2*E', '--omega', 'sample:omega', '--omegas', 'sample:omega;sample:omega2', '--output', 'json'), 0, "f3e5d129d9006cc024dc26c2134e277e65206d405b98724250cbdd414c0cd3cf"),
    (('g', 'zoo:blp4', '-p', '2', '--alpha', '6*H^2+9*E^2', '--omega', 'sample:omega', '--output', 'json'), 0, "cb0a07208957c024f0cc6568113434db6443a0168fb39b620b7eb28bb5f6d486"),
    (('g', 'zoo:p1xp2', '-p', '1', '--alpha', '1*a+2*b', '--omega', '1*a', '--nef'), 0, "a7a8169ec08887f35304112657293afb6e4b19abd4df1fd50069dc351e206850"),
    (('g', 'zoo:quadric4', '-p', '2', '--alpha', '1*a+2*b', '--omega', 'sample:h', '--output', 'json'), 0, "56a537dd65f14786631b8c236b1c130ebd968d7e64a49ac6539cb0420b09f776"),
    (('g', 'zoo:blp4', '-p', '2', '--alpha', '1*H^2', '--omega', '0*H+1*E'), 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('check', 'zoo:p1xp1', '-p', '1', '--alpha', '3*a+1*b', '--omega', 'sample:omega', '--output', 'json'), 1, "1888831eede3f737a91ac43aad9db5c8e86b7ee31cc30faff1f1df88b9a08c7f"),
    (('check', 'zoo:p1xp1', '-p', '1', '--alpha', '3*a+1*b', '--omega', 'sample:omega', '--direction', 'opposite'), 0, "89a283f0c1b23110989e74449694d950dbca7b95c6c8abc324c135ae1f459d08"),
    (('check', 'zoo:p1xp1', '-p', '1', '--alpha', '1*b', '--omega', '1*a', '--nef', '--direction', 'opposite', '--output', 'json'), 0, "0361db3e95217db1269c1668d2ad8f9665780afc37268202f8f0abdf074881ee"),
    (('check', 'zoo:flag3', '-p', '1', '--alpha', '1*s1+1*s2', '--omega', 'sample:rho'), 0, "0f2ab5f289524d20bf249200af01afc75217cd5a5deec74c7936d292209f832b"),
    (('check', 'zoo:blp3', '-p', '1', '--alpha', '1*H+1*E', '--omega', 'sample:omega', '--omegas', 'sample:omega2', '--output', 'json'), 1, "ea07b84129aafb4845c002e3b353905abf9db2f7bb2e04318faa7840ece5165e"),
    (('verify', 'zoo:p1xp1', '-p', '1', '--samples', '20', '--seed', '1'), 0, "3064945df4c6de593cf9b9cc2846ddef1e886ffff12a85d19732e6362ddb8e0c"),
    (('verify', 'zoo:blp4', '-p', '2', '--samples', '10', '--seed', '3', '--height', '1000', '--output', 'json'), 0, "06c4ef3f6ea5cd95ecdc529e232bfe18c5cf38328bb85e6ffff562b27a61d630"),
    (('verify', 'zoo:flag3', '-p', '1', '--samples', '10', '--output', 'json'), 0, "1472021d33eb338323727a284d7adc3b9e73eaba90aecfcfa9a1be2bb0a46632"),
    (('verify', 'zoo:quadric4', '-p', '2', '--samples', '5', '--seed', '2'), 0, "72d60d4ff37b48969f461530e7b29706934c45da461be6fb59cc6889116608f4"),
    (('verify', 'zoo:blp4', '-p', '1', '--samples', '0', '--output', 'json'), 0, "8d823d02944bbd8c36681e38624ae66ecaaf3b34959a2d34651a85ba149d698a"),
    (('counterexample', 'zoo:blp4', '-p', '2', '--output', 'json'), 0, "07188368723a9b06c3a074d9c21d01dc513436ffc68ff52ff005aa4cf61f5a2d"),
    (('counterexample', 'zoo:p4', '-p', '2'), 0, "17032f064fed6a6e517c0243887ce5d64252937b6ed7c2e89c4233b451c34e6f"),
    (('counterexample', 'zoo:quadric4', '-p', '2', '--kind', 'opposite'), 0, "7f5f6043b22a991b5446ea2169cd56d653730368b6132220e82231d910bd71ac"),
    (('counterexample', 'zoo:blp4', '-p', '1', '--omega', 'sample:omega2', '--omegas', 'sample:omega;sample:omega2', '--output', 'json'), 0, "ca0dc61499af251576c2d9324f3b9cf3479bcad5160e4f175968feea349d6a02"),
    (('counterexample', 'zoo:flag3', '-p', '1', '--omega', 'sample:w12'), 0, "5af15ba74be12aef0f114642edb55b55b2fcbb884a432cd5b4b67f4229d3d932"),
    (('kt', 'zoo:blp2', '--d1', 'sample:hyperplane', '--d2', 'sample:omega', '--output', 'json'), 0, "1b4fbd1387c7cdfa3fe0c77e16ac3f48e47b1ce19dace4990e63745119ca86a2"),
    (('kt', 'zoo:flag3', '--d1', 'sample:rho', '--d2', 'sample:w21'), 0, "9c24583f1a93bf9bd820af794c1c80072e35089e6dd2857a7620924cb4464811"),
    (('kt', 'zoo:p1xp1', '--d1', '1*a', '--d2', '1*b', '--nef'), 0, "4a0d96a5be1c2861f97c17dbb20e6eca1163c26ae51066fc87deca508f224513"),
]


def _write_bundles(directory) -> None:
    """blp4.json: canonical export; degenerate.json: integral zeroed (validation
    issues); unknown-field.json: a structural rejection without issue list;
    broken.json: not JSON."""
    text = serialize_ring_bundle(zoo.get("blp4").ring)
    (directory / "blp4.json").write_text(text)
    doc = json.loads(serialize_ring_bundle(zoo.get("blp2").ring))
    doc["integral"] = ["0"]
    (directory / "degenerate.json").write_text(json.dumps(doc))
    doc = json.loads(text)
    doc["extra"] = 1
    (directory / "unknown-field.json").write_text(json.dumps(doc))
    (directory / "broken.json").write_text('{"name": ')


@pytest.fixture
def bundle_dir(tmp_path, monkeypatch):
    _write_bundles(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv, code, digest", CASES, ids=[" ".join(argv) for argv, _, _ in CASES]
)
def test_golden_report(argv, code, digest, bundle_dir, capsys):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, _digest(out)) == (code, digest)
