"""Byte-level goldens for the CLI reports.

Every case runs ``valuata.cli.main`` in-process and pins the sha256 of its
exit code, stdout and stderr, so a refactor of the report builders or of
the normalize loops that changes any byte of any report fails here.  The
matrix covers every series preset with best, not-best, trivial and defect
inputs, the norm-ideal sampler on every preset (two p = 3 cases exit 2),
both Kummer commands for p = 2, 3, 5 with m = 1, m = 2 and an imperfect
residue field, and the corpus run.
"""

import hashlib
import json

import pytest

from valuata.cli import main

# series inputs per preset: best, not-best, trivial and defect shapes, plus
# a chain longer than three steps for the --budget 3 run
SERIES_INPUTS = {
    "gf2-laurent": ["X^(-3)", "X^(-6)", "X^(-16)", "X^(2)", "1", "0"],
    "gf3-laurent": ["X^(-1)", "X^(-3)", "X^(-81)", "X^(2)", "1", "X^(-2)"],
    "gf4-laurent": ["w*X^(-1)", "X^(-2)", "w*X^(-2)", "1+X", "w", "1"],
    "gf2y-laurent": ["y*X^(-2)", "y^2*X^(-2)", "y*X^(-4)", "X^(-6)", "y", "X^(1)"],
    "gf3y-laurent": ["y*X^(-3)", "y^3*X^(-3)", "X^(-1)", "X^(2)", "y"],
    "gf2-half-powers": ["X^(-1)", "X^(-1/2)", "X^(-3)", "1", "X^(1/2)"],
    "gf2-rationals": ["X^(-1)", "X^(-1/3)", "1", "1+X", "X^(2)"],
    "gf2-lex2": ["X^((-1,0))", "X^((0,-1))", "X^((-2,0))", "1", "X^((1,0))",
                 "X^(-3)"],
}

NORM_IDEAL_INPUTS = {
    "gf2-laurent": "X^(-3)",
    "gf3-laurent": "X^(-1)",
    "gf4-laurent": "w*X^(-1)",
    "gf2y-laurent": "y*X^(-2)",
    "gf3y-laurent": "X^(-1)",
    "gf2-half-powers": "X^(-1)",
    "gf2-rationals": "X^(-1)",
    "gf2-lex2": "X^((-1,0))",
}

KUMMER_INPUTS = ["2", "3", "4*3", "9", "1+pi^(2)", "1+pi^(3)",
                 "pi^(2)*(1+pi^(2))"]
KUMMER_Y_INPUTS = ["2", "y", "y^2", "1+y*pi^(2)", "pi^(2)*y"]


def _cases():
    cases = []
    for preset, inputs in SERIES_INPUTS.items():
        for expr in inputs:
            flags = [expr, "--field", preset]
            cases.append(["analyze-as", *flags])
            cases.append(["normalize-as", *flags])
            cases.append(["normalize-as", *flags, "--budget", "3"])
    for preset, expr in NORM_IDEAL_INPUTS.items():
        cases.append(["verify-norm-ideal", expr, "--field", preset,
                      "--count", "4", "--precision", "12"])
    for p in ("2", "3", "5"):
        for extra in ([], ["--m", "2"], ["--with-y"], ["--m", "2", "--with-y"]):
            for expr in KUMMER_Y_INPUTS if "--with-y" in extra else KUMMER_INPUTS:
                flags = [expr, "--p", p, *extra]
                cases.append(["classify-kummer", *flags])
                cases.append(["normalize-kummer", *flags])
                cases.append(["normalize-kummer", *flags, "--budget", "0"])
    cases.append(["classify-kummer", "pi^(-1)"])
    cases.append(["normalize-kummer", "pi^(-1)"])
    cases.append(["run-corpus"])
    return {" ".join(argv): argv for argv in cases}


CASES = _cases()


def _digest(code, out, err) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _run(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return _digest(code, captured.out, captured.err)


GOLDEN = {
    "analyze-as 0 --field gf2-laurent":
        "b75652f3562ea5ab54947102a80085dc7bf5040d3a4b23836ab72c2148c66ffb",
    "analyze-as 1 --field gf2-half-powers":
        "425f9718ef311a3241377400b58ef79a1120dbd3a7fec2466d93b844f89a6c97",
    "analyze-as 1 --field gf2-laurent":
        "741201846ed99300f06a47227d06f9b4306b3b2601bead5a991725e667b58bed",
    "analyze-as 1 --field gf2-lex2":
        "e4cc9de55fa955e2f0c2b6f035ebe2a24ccde746290eb513846f50305752c02a",
    "analyze-as 1 --field gf2-rationals":
        "449506348ceb9671b8caa4a4ede6fc2b93fc0985cb87718f77de32898f036007",
    "analyze-as 1 --field gf3-laurent":
        "88c75c12287669e78d0cf8c66b0614527060ae2219c278128610e7a77e72da26",
    "analyze-as 1 --field gf4-laurent":
        "02b8fa6d424b2e0ee22753038ed841762f16f41ef142c4701af2cb473b9668bc",
    "analyze-as 1+X --field gf2-rationals":
        "77a10b1e3528268089e28246d108aa101bf090d050c931f385791c4c5f76dd09",
    "analyze-as 1+X --field gf4-laurent":
        "92d68c0af8f77259664654d2a196c9ca06309f67c016d30906dcef73eff724e5",
    "analyze-as X^((-1,0)) --field gf2-lex2":
        "9fcb8f9f7d77bae0ebc207d57d830cdf223e78d16f6d9d395ab41d7a874db512",
    "analyze-as X^((-2,0)) --field gf2-lex2":
        "79c01d19fe82e3d844f6363fcd0ae19f66056ff3af3144fc4ec946fb5e106429",
    "analyze-as X^((0,-1)) --field gf2-lex2":
        "db6e4c778ec97e069585f8dca3653728609fe2bbbefe760e5f9dfde36fe6102b",
    "analyze-as X^((1,0)) --field gf2-lex2":
        "a77befef6a1a16ea6eb7cb8dcac4f5ee108a96c619a6c04ee7082b3247ea4297",
    "analyze-as X^(-1) --field gf2-half-powers":
        "874d401402d1b6ba5c636eb88086242e5e5f54dc03d11b9be9628eeee3297f06",
    "analyze-as X^(-1) --field gf2-rationals":
        "16abc438effbe36d603d8f52d9a3ad2035fe514f3eb847f9b4624f73c37c9394",
    "analyze-as X^(-1) --field gf3-laurent":
        "06241b8c15aaf1caf99901224385b2043895fcc37f67499ebaf78d50077edb0c",
    "analyze-as X^(-1) --field gf3y-laurent":
        "e65fd1312c46231df2ad29d8b663827627f5a626f59bd4b4e7598b73c5944247",
    "analyze-as X^(-1/2) --field gf2-half-powers":
        "7fe7d5190632d6812e53d7743f79110816cba5e94de21190a99ed0c6c0e79273",
    "analyze-as X^(-1/3) --field gf2-rationals":
        "1a0419713ede9699deddf1554e0ee8714a6bcd4d889f821bf6fd48464872cdb2",
    "analyze-as X^(-16) --field gf2-laurent":
        "bc1064ed1398e53f8bbb099d3d3bdddb225a6e258dca8e0f9a2617f27f9c56fe",
    "analyze-as X^(-2) --field gf3-laurent":
        "6be9bcb16427d6c78759c5f521180816e1cbc88611639dda8328c09718deb42f",
    "analyze-as X^(-2) --field gf4-laurent":
        "76529f8e7a532c559567d3435efd6ccdcf639dd91093d2234cc896f11b08e834",
    "analyze-as X^(-3) --field gf2-half-powers":
        "708b71f788338a7d6031bf4b8c369600480ed75b09bae6798d3a4952b2f66b72",
    "analyze-as X^(-3) --field gf2-laurent":
        "acae56c061cfa673e01a4a1c29a19294dc5dfcb6a5b9aeffa4ad51859ea0c7e0",
    "analyze-as X^(-3) --field gf2-lex2":
        "4f17b960fa3fa9e7d66de8ff517932e732e611b68ab1c6136d386c9d5f883031",
    "analyze-as X^(-3) --field gf3-laurent":
        "3a32d86acfb754c30378c0ba84835c0fc6f3557757d83b70639be3b3bce734dd",
    "analyze-as X^(-6) --field gf2-laurent":
        "2d554cdf9ec1b22494734e1cf0f5ac30ad68a67def197c0e6970828f5e1d6b90",
    "analyze-as X^(-6) --field gf2y-laurent":
        "3f559aaca6753a57c33e25d7f5f7e39b388149f4b03d94da4e996cb7251d9dc7",
    "analyze-as X^(-81) --field gf3-laurent":
        "1366ca28704d895437da9af0906e38fb903c760b07b6bf71f9dc12daf38dcd53",
    "analyze-as X^(1) --field gf2y-laurent":
        "5b5662963be6823c77167df8189f85c3f30ccd65748017e7ac4021047f6cc6ad",
    "analyze-as X^(1/2) --field gf2-half-powers":
        "a3621b605e37b158a72facb3de99ec62e2a759511118d9f35de8e9937b4bca36",
    "analyze-as X^(2) --field gf2-laurent":
        "aa62afa151afe1f19265df78c30b06b8220d253c62f9ce60cb7428af4143e43f",
    "analyze-as X^(2) --field gf2-rationals":
        "6c77c47347d61f4d9116d47a578bc2ef1af38c3eedd633fc463fdaf6df416cc5",
    "analyze-as X^(2) --field gf3-laurent":
        "28a49b191b4480cd201ea9ded2d1a04f619a0b4ccf4ea70a4a73397dd391ccb4",
    "analyze-as X^(2) --field gf3y-laurent":
        "ea5472bf75c6f7839eaa9a13aeb21a7df368de202bb29a593db7fc587b69449c",
    "analyze-as w --field gf4-laurent":
        "74c25bd749ddde27eea0c9322bddac1a609ee07167d5187b09d5f47052bbeef8",
    "analyze-as w*X^(-1) --field gf4-laurent":
        "4bcda8eade55e08e604e95525f1a6d64563c712b31bdda75c7b741fa061dd755",
    "analyze-as w*X^(-2) --field gf4-laurent":
        "618d2a8f23eaa614164569783d52b30fdd82f4158395d6d0df4feb69dc9e1d3f",
    "analyze-as y --field gf2y-laurent":
        "9e1ceb37e77a65b68709a6f12276289b134d28e2f4f8db2ba90307a73cd0b192",
    "analyze-as y --field gf3y-laurent":
        "79f35c15599ca762ed355f847e4be46aa275c1c59f50b7ea45c105cef6447fb8",
    "analyze-as y*X^(-2) --field gf2y-laurent":
        "f169f4f05845720323686c5d77528741444c3e2400b8fd47d4bdeb7cd2190c4e",
    "analyze-as y*X^(-3) --field gf3y-laurent":
        "165b3959671bedc84bb2a6af45387c8f700d3fbdf8f838dd7798c5d98c4cea12",
    "analyze-as y*X^(-4) --field gf2y-laurent":
        "8734bf1bcc58cfaadb0cb23134bb3a3bce406130d3c671fd288c049007285a88",
    "analyze-as y^2*X^(-2) --field gf2y-laurent":
        "0cb79abc4cd9ddddb3b6e77e7311c13f54f1a83e9243b68faae3df6b0e5100ac",
    "analyze-as y^3*X^(-3) --field gf3y-laurent":
        "455dabf74b13a53afa9d5f25601f020d8b63f6ba1f16f7aa64fa9988bd1e2edd",
    "classify-kummer 1+pi^(2) --p 2":
        "70f4bbde819a6c4077e7504f388ed00b5c46360e2c0a741e29007beb980d1617",
    "classify-kummer 1+pi^(2) --p 2 --m 2":
        "896a412086a55b9f0a865e061ce4b8d02fe90a269c3a6306a75f15e6abd2fd8d",
    "classify-kummer 1+pi^(2) --p 3":
        "d097bb26c7b9df2907c5432124198a86af9633b5e45aa536138daa47c79977c6",
    "classify-kummer 1+pi^(2) --p 3 --m 2":
        "0f30a4569bb14e6326f52d1ea76e7be6019ef2e57fbcef7d19b659ea4b9596f3",
    "classify-kummer 1+pi^(2) --p 5":
        "c9dfd670a6b275186eb23280a1b68b52309db0e7963bf42ac4f699b407b29e45",
    "classify-kummer 1+pi^(2) --p 5 --m 2":
        "afff6c5eff2605a61186833169a313085c6642f32c237f21dd06a56c18270121",
    "classify-kummer 1+pi^(3) --p 2":
        "a8509298e3115da51619b03eee9f9bc41391b6167f74575aba23cff7e8e81ae0",
    "classify-kummer 1+pi^(3) --p 2 --m 2":
        "c470666d777c8aafc02adecef90b9c7793851fc19cb70e2ebc005d55773de92e",
    "classify-kummer 1+pi^(3) --p 3":
        "9c6dbaf78091125ff655b4159ed4773daa9827ee526afb2f1884277f6165333a",
    "classify-kummer 1+pi^(3) --p 3 --m 2":
        "374dab8958a8e6e3a2cf96661986b219560c918b6be2466a251c7ebf40f55c23",
    "classify-kummer 1+pi^(3) --p 5":
        "686015a819227965189d8f3f6437d3bd08ebc652b32f8f33656626426388f263",
    "classify-kummer 1+pi^(3) --p 5 --m 2":
        "584304ae060608ec063107296862df617fb272b06bba3ef38c53cae4b2585f4d",
    "classify-kummer 1+y*pi^(2) --p 2 --m 2 --with-y":
        "3afa32a74482352a877d8600c28404f8b7da9db3a77e81d7bbe14f69a0da1d1e",
    "classify-kummer 1+y*pi^(2) --p 2 --with-y":
        "f2131f300d5212994c4395e9670f337fe542342f2645a77033fabf8f82b63a2f",
    "classify-kummer 1+y*pi^(2) --p 3 --m 2 --with-y":
        "f2ff87401cab5aa4688f18fce540f3d2bae763e4285ebef7385fe5cefc0ee163",
    "classify-kummer 1+y*pi^(2) --p 3 --with-y":
        "6db6405cc7851881b7aa43281f0b80c292f5f9d72048c35e8cb7154ac79d2f62",
    "classify-kummer 1+y*pi^(2) --p 5 --m 2 --with-y":
        "3ec63be85d335b3eb856c143323e30b828954754c1c2ddcff2765b7d684b80e7",
    "classify-kummer 1+y*pi^(2) --p 5 --with-y":
        "0143aea61d9d58025e11f98c8c2bfaf6221ec65dc612964314a3cf0000328895",
    "classify-kummer 2 --p 2":
        "5a60bf1cea4b8e1b9c69b3ae1175cb25a90e2640214400bd8288634d09c50c0c",
    "classify-kummer 2 --p 2 --m 2":
        "ad1e57b4a27ed8a9baf6b4c134ca31916ea9b71c5383f04a37d3aa5cc8281762",
    "classify-kummer 2 --p 2 --m 2 --with-y":
        "681a74af939e49c51a0fd130e4e45d817e4ab63ced79285dbf5d0d451ee79713",
    "classify-kummer 2 --p 2 --with-y":
        "babc659540725489bdbb8cda24001e5d24e15e6cd1d688c0b77a732094edff34",
    "classify-kummer 2 --p 3":
        "26d4cbeb51792275668cd95289c1655b74be17882bbfb6cca237e630618662a5",
    "classify-kummer 2 --p 3 --m 2":
        "42e5450a277ddad9ecd315084353f29ab385aa2d699fc9c34f7c1fb0dce30fdb",
    "classify-kummer 2 --p 3 --m 2 --with-y":
        "1b9ad8985c0952b9bd04b39b0c953f39842279c5ba30106bdea5d1ddf4ec3f74",
    "classify-kummer 2 --p 3 --with-y":
        "8f165470577a1478acfc42c0033d12d2f9352190bced597e53050ce4298e2400",
    "classify-kummer 2 --p 5":
        "fee9f9331a0e47da145d1fad6b4d943e0033147e0a197f91ebbfc94e19a66531",
    "classify-kummer 2 --p 5 --m 2":
        "1a258d8fa8e0c87f947c78ed301ff5a58f00acf6ab2446913c8101a2a7f62e22",
    "classify-kummer 2 --p 5 --m 2 --with-y":
        "7a7f65c9fecbec22a537176614c33a9c52fba92213449f9ce003014c09d5dcbb",
    "classify-kummer 2 --p 5 --with-y":
        "55f3b0d4c2127263cbc2388ec540f4fc5387b4c356e7e71547b510b8afebaf6d",
    "classify-kummer 3 --p 2":
        "8f3b8644a51a8f7ad317f3c2532a097b8b09be5b2c5c1db45bcfe6a1890481af",
    "classify-kummer 3 --p 2 --m 2":
        "6d57f6c6c8146fb0d945c458beca5acb8d4e7f0f6a043a5216f001688cfdbf2e",
    "classify-kummer 3 --p 3":
        "5f3f0cdc7a440c9e09393c921b1d4fcf6dbf67e562209622f2b6f590beb96b07",
    "classify-kummer 3 --p 3 --m 2":
        "1ebe28f7abd9e69c51afcf3a156a3ddf929e98a0483701d4ba7a830790db8c11",
    "classify-kummer 3 --p 5":
        "21a45a37f5cd0ea6173bd83fffe1b0afa8edfb1a7ddff25c3afa50957681b238",
    "classify-kummer 3 --p 5 --m 2":
        "de82530528da3aaf2366daf1dcf0343a1769c787c524b627dbe877193fa5bb85",
    "classify-kummer 4*3 --p 2":
        "5b21d0e95ad9cef830c11fb68fe3ed51b0c3c435e9ea13d52bbdd8520939a61d",
    "classify-kummer 4*3 --p 2 --m 2":
        "0e3c0ad2750c74ee325b8428cf1396875a94d77677ad360477dbd1dabfd56606",
    "classify-kummer 4*3 --p 3":
        "436dc1a9008c37a5548506cd809156d9a41616b8463bd4953e7fc5b1e11af436",
    "classify-kummer 4*3 --p 3 --m 2":
        "9a0a7a8c1e5fc19c3c922d68fff8f3d5b97b9e571aa8a28a12f4659a94d4fd6f",
    "classify-kummer 4*3 --p 5":
        "3299b7085f56c715a175e789c9fa31a88727ce13d7b8f04bae7ee44b73528798",
    "classify-kummer 4*3 --p 5 --m 2":
        "58208a7a05e112a3c11d1eb08a9dbd4b6779bee559e16ba361400e115d0f6209",
    "classify-kummer 9 --p 2":
        "b476f7429f41842eb01113f972d11b35f468b44118c0c956fb52e33baac762e3",
    "classify-kummer 9 --p 2 --m 2":
        "c48966dda5e16a55c74eb610252c17be4a1945416756f5a3f5355a364af01440",
    "classify-kummer 9 --p 3":
        "edf356f91514a67db0010f617071e20740b06efb2cb475ccb8050df19604d738",
    "classify-kummer 9 --p 3 --m 2":
        "b45a9693932b8993ead9f8ab5514b42594d057271f7fdb78cdd3508636935a2b",
    "classify-kummer 9 --p 5":
        "b632e568277d8b9311c7c71d1bd72dccbc6004763c54cbb1d25cd50fce7446bf",
    "classify-kummer 9 --p 5 --m 2":
        "2390f5166927d9fdf61276a34d201a86d8617e542c0544bc49109087723e9ddc",
    "classify-kummer pi^(-1)":
        "204d61ca9117a0e067822044eb940e2063030a82389ec5a2c4fd51d0ce51c440",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 2":
        "43990974645b2c305f46b7e238f3e7257b7aa856a69d8ce3d35525ea8e1898f1",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 2 --m 2":
        "782af652feef9656bedf0605e863bb4530e2b81108fa1e39ffedb696f0dbd21d",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 3":
        "a09ec36959bef62b862034f359ad4c559acce862a741b3798a7c7e7be2f3574c",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 3 --m 2":
        "042ade69cfc6fdd726c98802e621a1d280e4a750c6bca35b7173c443c36f6556",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 5":
        "9cbd92887f937e73677ab9c7ecbf844f5df10a095c855d5835740aea660645a9",
    "classify-kummer pi^(2)*(1+pi^(2)) --p 5 --m 2":
        "5b71472e7868e11de937c9d1ec110c6c52943b77102bba7a8f6e3bffccab22c9",
    "classify-kummer pi^(2)*y --p 2 --m 2 --with-y":
        "804dbcab5ede686cd7fd0c35c7206f9f0e3b68a825a16ca02525b003747bb731",
    "classify-kummer pi^(2)*y --p 2 --with-y":
        "a0baf7982f6ff4bf24bd0dfe4834a5f77d03ce45f04af9ba367e706ad35846b2",
    "classify-kummer pi^(2)*y --p 3 --m 2 --with-y":
        "febb8db1cbd88009ec596e0ce25918a2206f98113995c9ee6175b7b7c06fcdb2",
    "classify-kummer pi^(2)*y --p 3 --with-y":
        "3f42eedbc837b15dcc8274acc56d0d44c557539b47e8ce9092e6450ab3527f25",
    "classify-kummer pi^(2)*y --p 5 --m 2 --with-y":
        "8eb469d59080eb9233c9be76edce272e0c7073d618ac3a5e298e936aee61afb7",
    "classify-kummer pi^(2)*y --p 5 --with-y":
        "8cc15e346731d46e770c34228ea2d50f1762a7bad25f872b7a848d6dfd765312",
    "classify-kummer y --p 2 --m 2 --with-y":
        "c20b020be76651f8f2a45201622cf27ff4b6d99c1754a829266011d14a5bce71",
    "classify-kummer y --p 2 --with-y":
        "cf13973ed40278995f2951a8d803cfdb469e4c99788106c450e37f47b3335ef0",
    "classify-kummer y --p 3 --m 2 --with-y":
        "3dee941892843ca1a8add7f6737bfaaf99a29c8d7eb46172c6f9e0c1c5c5901a",
    "classify-kummer y --p 3 --with-y":
        "76a55f045963a5cd86c9c7226200703c625ac2b9adb3b2dc97f836325dd477b5",
    "classify-kummer y --p 5 --m 2 --with-y":
        "f3e9c73032e7c54dbb875c8983650146acc6a6dc70d09d459dc223297a0ce7db",
    "classify-kummer y --p 5 --with-y":
        "272aa931ea51c7c1b9b81827b5a8685cae240d100d768334a240b01ce7d6509a",
    "classify-kummer y^2 --p 2 --m 2 --with-y":
        "56c4022db4846d4a9ae67aac171827a43be3f4f423fa1323e0d5e6b97178976f",
    "classify-kummer y^2 --p 2 --with-y":
        "a02800eec2baa8e5c55e8dca66f3dc9bcde38476138cac2fe138caab5401a0c3",
    "classify-kummer y^2 --p 3 --m 2 --with-y":
        "f1026b55a9356e753e306e93c65a69ec4fbf2d0966ef42944dddc7368015cc06",
    "classify-kummer y^2 --p 3 --with-y":
        "9ddec1373203a61f49039ab5e4bf711d074baa344fb5b5a3b458675e914b47cc",
    "classify-kummer y^2 --p 5 --m 2 --with-y":
        "057b98fcb6e75892f430b82603b162abe7af3d88606956baf5441c6c0045dc62",
    "classify-kummer y^2 --p 5 --with-y":
        "a6243eaff0e71640daf736e7f0f9357db16b02ff3a5e565b8de0b68190e9d2f7",
    "normalize-as 0 --field gf2-laurent":
        "f0424d028dd5caed2e488d923bc00bb2bf3e8978a6f2a728673e076e0f97cc9b",
    "normalize-as 0 --field gf2-laurent --budget 3":
        "4e9c253aeddc8de433c8b6e4bed2f56e8d6f2bf39f4c4e9249e624572ad60969",
    "normalize-as 1 --field gf2-half-powers":
        "312e28edd710fb762dd7fe878220f179b80a3ab6a91a7812c8f65fabf6f1440d",
    "normalize-as 1 --field gf2-half-powers --budget 3":
        "2bec1d7132febefe44c06c3c64b70bfd40b64da142e6822d095c45af67f9785d",
    "normalize-as 1 --field gf2-laurent":
        "48da2dbb798647afcb37dc581389ac973010a52cfd7d8eedfc7775d6c95d1586",
    "normalize-as 1 --field gf2-laurent --budget 3":
        "2217718c4de409a13674830494a1cadd206c97a8539d5cccbe5986db4c09e30c",
    "normalize-as 1 --field gf2-lex2":
        "19e0041ca92254d098fda6ef07e46be467ff7cd4e5b24b08fd17e1d26b79bf9a",
    "normalize-as 1 --field gf2-lex2 --budget 3":
        "715c8239dbcdea7495af238db3ec6dd974fcecebc93c9087153f475db33c81a1",
    "normalize-as 1 --field gf2-rationals":
        "55e98fa47b30dcee1116a13b856fd9fd9befb5add32112aa73ad28d6cb0ebb88",
    "normalize-as 1 --field gf2-rationals --budget 3":
        "ae7b41b76567cbe7da9736aa610609f5a342c8c29a47d709ad5f12b610d36ae9",
    "normalize-as 1 --field gf3-laurent":
        "ceead2d09f4de3de650b30f49062d89da00c577af6834d37f59fb61984d93e6e",
    "normalize-as 1 --field gf3-laurent --budget 3":
        "60c819d5ad386eac4c01f8806e25f7ee37d1f26bdbb2deac028a4a70f436df81",
    "normalize-as 1 --field gf4-laurent":
        "7292027169d0b87e7c78837b22793201d029fefd9c5694f81bf0e79c193a19fb",
    "normalize-as 1 --field gf4-laurent --budget 3":
        "f1f783bdbf0d15017071513a6247d38a816af70b246e8933ffad77d5b35689d5",
    "normalize-as 1+X --field gf2-rationals":
        "51594c097b5d30374f726e13b80df56e9e0420985b9a7264f3821f1e287be805",
    "normalize-as 1+X --field gf2-rationals --budget 3":
        "403de920718c9874f14962d0ae406b404e6a0baaddaea3a08ed4d25d6b6642f9",
    "normalize-as 1+X --field gf4-laurent":
        "2b333075b472b927dc82328506635dda668202b0f91950135a4e910700484e4b",
    "normalize-as 1+X --field gf4-laurent --budget 3":
        "d67e49a0d7cb56b34e48e8b4dd57c6a6e57e2165dd807a7bb00e0e41b1a82bf0",
    "normalize-as X^((-1,0)) --field gf2-lex2":
        "e03a535d7df8a8200ce1de4c4e1940097334fe058beef0617c348d4676402640",
    "normalize-as X^((-1,0)) --field gf2-lex2 --budget 3":
        "8efbf14c85ba30cb9fb9eb9e1940defba41fc0d8355afe40a0ed0b9cb2adec6a",
    "normalize-as X^((-2,0)) --field gf2-lex2":
        "a8840301d11409bd7b248b464613eefa910773702940b2e357e67f78eaed4956",
    "normalize-as X^((-2,0)) --field gf2-lex2 --budget 3":
        "557f1e8d0bf00a66f169e8e3a34470ffb7fc9c721f1e15f9ccb326653a560ca9",
    "normalize-as X^((0,-1)) --field gf2-lex2":
        "60cd3cc269d7f7314cc8905a90c3a552736a9324300aeeb0cfb5fa8fbe24cabd",
    "normalize-as X^((0,-1)) --field gf2-lex2 --budget 3":
        "84204232ba90ed9cdb5da6df0efd028541b98589c4ee4a34015c5f74be17c365",
    "normalize-as X^((1,0)) --field gf2-lex2":
        "50e6fe4e3a5cc8b413f5a6d63faaeeebbc96e17fe9631c734e024fe3d6c7744c",
    "normalize-as X^((1,0)) --field gf2-lex2 --budget 3":
        "6953e05f5b7a51a20b5512d90d442287a528d94a6b6220be2f513d12bc1aa276",
    "normalize-as X^(-1) --field gf2-half-powers":
        "a83248b89eb4f1ef51cb880db3e425f17cb2d9bd33375f3e6b1f622651313018",
    "normalize-as X^(-1) --field gf2-half-powers --budget 3":
        "30388c3d24f7340fc44cf527a3a9fe08f29f5a40177eed4ca35270c7994055b1",
    "normalize-as X^(-1) --field gf2-rationals":
        "168be207a509eb5591f35da350f161c2e46a51421ddb9eae001d1d0e27b79e28",
    "normalize-as X^(-1) --field gf2-rationals --budget 3":
        "bafdd32bd84fd2c9b1c19adb8d9304d15276583cd144e38b06f9aeccc19cc8ba",
    "normalize-as X^(-1) --field gf3-laurent":
        "9709dbac4efa36672a22aa6cf8e2e51267a6f798fd1d42fe1001afc1da4088b8",
    "normalize-as X^(-1) --field gf3-laurent --budget 3":
        "986aa2df20eb73ca4a44a9fd61804a62fdc96a980c3b82c9e2478ab03230550a",
    "normalize-as X^(-1) --field gf3y-laurent":
        "a560a8203236355d93388eb267d01a49189dbe9ba0f38d6c88111b88ff9e6aa6",
    "normalize-as X^(-1) --field gf3y-laurent --budget 3":
        "49b34cf72ca83a25ad57c5afb2a6af26b56fb954d5a387808c2edeab05a02a22",
    "normalize-as X^(-1/2) --field gf2-half-powers":
        "a82931b7d830a5e22cc83da692ecc81ddbd1de9abc15dd26135ed1f5a576b4aa",
    "normalize-as X^(-1/2) --field gf2-half-powers --budget 3":
        "59c80c98a257aa5680fdcfd8a26c56dc2044b72d51fae35bb763548e4e7f365b",
    "normalize-as X^(-1/3) --field gf2-rationals":
        "e734625e0f3a3185855a1c11bc47bdb9e53e5edfdaf4cf9f7595aece9e295782",
    "normalize-as X^(-1/3) --field gf2-rationals --budget 3":
        "408619daba20d8ff2c71c44b6933db786108e05cdbb9cb1241404f12e53a998b",
    "normalize-as X^(-16) --field gf2-laurent":
        "11e7244ce262957b7809f7b9d2b229091c95f4d4a7030e15566c13fb75101ecf",
    "normalize-as X^(-16) --field gf2-laurent --budget 3":
        "a209ab78e19a8074ba2bd7760af3dc88e060d7ec82d55c7f91c543dffc32f29f",
    "normalize-as X^(-2) --field gf3-laurent":
        "1ca11e7ddab49321126a81ec2dbdeed4ee78f8afda4114ce8db7b5fd79481713",
    "normalize-as X^(-2) --field gf3-laurent --budget 3":
        "3c0a5f6b8d2f7504cc1387bc31dde19612390e2d4d898083066395a8abf71313",
    "normalize-as X^(-2) --field gf4-laurent":
        "d61f73bbc8966e22046b20f055e66684c66def6f3099696e3ee72645d98567e2",
    "normalize-as X^(-2) --field gf4-laurent --budget 3":
        "557b5d561bbd15648052135ca7e624e6b0bebb727c76c1f6bfbe449cc69766d2",
    "normalize-as X^(-3) --field gf2-half-powers":
        "23e45503b5cfd6fd7a28b3b165d8e17f40d90bf2b2db591aa9a5a020d59f95dd",
    "normalize-as X^(-3) --field gf2-half-powers --budget 3":
        "e590dfe6a827bd98ad07938de53ab81027e751d92ad432eb82e4b6b2648850e6",
    "normalize-as X^(-3) --field gf2-laurent":
        "8ab9939a29f3bece5f3764526a2a0c3079ef25906754aa121e0f8d55968d00f1",
    "normalize-as X^(-3) --field gf2-laurent --budget 3":
        "8f36388af5291f1505a22423a2b18885e4f76b9fb0a3ebe6d23af84e65d3c7f6",
    "normalize-as X^(-3) --field gf2-lex2":
        "4f17b960fa3fa9e7d66de8ff517932e732e611b68ab1c6136d386c9d5f883031",
    "normalize-as X^(-3) --field gf2-lex2 --budget 3":
        "4f17b960fa3fa9e7d66de8ff517932e732e611b68ab1c6136d386c9d5f883031",
    "normalize-as X^(-3) --field gf3-laurent":
        "b0c00d040f2661c2ad97e7ffa7b179f1add63a100c07bef7aa58b8df27fda35b",
    "normalize-as X^(-3) --field gf3-laurent --budget 3":
        "f8b92a3c0a70f98b6ac6770db1720827d7d10d3d1f3ecd8ea86578ace4f87c5f",
    "normalize-as X^(-6) --field gf2-laurent":
        "8ad0366ffed8f2f181a64e20a5fb821f6b9cf322f017e26b1425828d89e9647e",
    "normalize-as X^(-6) --field gf2-laurent --budget 3":
        "e4787f209350f65019f63042035704b0aac2771c701011d52298eb195f0747fd",
    "normalize-as X^(-6) --field gf2y-laurent":
        "33ec80d0fc4e1f953ed8093cbe42554dbbf535d1ec61b55d688eca11473b101f",
    "normalize-as X^(-6) --field gf2y-laurent --budget 3":
        "a4f7075109d319771f1f773c7976d82f2f40b85ea844649aa8a157667ebc11d1",
    "normalize-as X^(-81) --field gf3-laurent":
        "1cabc1f7c050ea1d6d47840265fb7d94b775471eeb54bcd41ac575a09d093a72",
    "normalize-as X^(-81) --field gf3-laurent --budget 3":
        "0e8a81907236b4f9b4503c4803c9c5a4efa1bb5e153f7e0788b4aa551e6a11a8",
    "normalize-as X^(1) --field gf2y-laurent":
        "56b2fc79b3a2e70019b4234c5b497cc726067c38a58298c947bbbb607349bdf4",
    "normalize-as X^(1) --field gf2y-laurent --budget 3":
        "c2124d59484d705ba264764beea573efbb7ff717745f1c5b42ccdeb8a22c812a",
    "normalize-as X^(1/2) --field gf2-half-powers":
        "7c1155bf6b1f3ed199d8cd847f2d9c7b7790557d26ffe98f478eeb1b9c4d4c67",
    "normalize-as X^(1/2) --field gf2-half-powers --budget 3":
        "64c5e0f288faa8eb9870675b53e383548cac5cf1eaca52a3ffb0a3b96e99d217",
    "normalize-as X^(2) --field gf2-laurent":
        "abc212fa016598ef64f50c05f40b12aba1cb2d4e6a1937b4c2cdba31142efaf7",
    "normalize-as X^(2) --field gf2-laurent --budget 3":
        "566c12c516c65bdefaf0fd17945b16d82b38f949562ec7074325530ae3ab6c95",
    "normalize-as X^(2) --field gf2-rationals":
        "8b9fc5e8f2439added8466689049277eaee537bda3a74606dd0d7a5485380eb3",
    "normalize-as X^(2) --field gf2-rationals --budget 3":
        "56a7fde67edef0f346d28abc681f322015ac67b8c213d78920ab5a31ac82049e",
    "normalize-as X^(2) --field gf3-laurent":
        "21e5dcba6df3a8139d52933cf75e80d8a222d1a90dfb46fca2ca1cfa96bd6e7b",
    "normalize-as X^(2) --field gf3-laurent --budget 3":
        "0086658da8bbba9968b738735dbc9abe772303da5a9386b65acebb06da62d0ef",
    "normalize-as X^(2) --field gf3y-laurent":
        "daf80965feaaa6603bcd87f8b9901d7e53f165d3358875064768d7b911aa61c1",
    "normalize-as X^(2) --field gf3y-laurent --budget 3":
        "4d758db0e9ceaf7aa0f8d116cb3212269ae6ce75f21f9bb4f72d88da12b97109",
    "normalize-as w --field gf4-laurent":
        "813c2fc3296acdde19b85009fecdc0d03f19b8fcf30f41f5f8f27380ab583276",
    "normalize-as w --field gf4-laurent --budget 3":
        "27fd7bd149d56143e746db8126615ea888644dd99de90a611296cc3da5decdcb",
    "normalize-as w*X^(-1) --field gf4-laurent":
        "cd963ddbeed700fa2f1a10f3396fb9fe48023e27c7e993a2b3c5c0b6b0d2be5f",
    "normalize-as w*X^(-1) --field gf4-laurent --budget 3":
        "985d81bbb4a703f53f1799090310c5c53c9175cae668b94a133ca4ee3f387453",
    "normalize-as w*X^(-2) --field gf4-laurent":
        "484d2dbdbf9b89f51f1acd4cc86787926fd35761b32b6206fd7e2b22318b5852",
    "normalize-as w*X^(-2) --field gf4-laurent --budget 3":
        "4e411643073f938624b7f15e235f1f89e791fca0ad88f079ea175c2a89b15e6d",
    "normalize-as y --field gf2y-laurent":
        "6513a8e90623cc859471927e340e1a1579aa105b9688f771e2ed81f38032306c",
    "normalize-as y --field gf2y-laurent --budget 3":
        "24eb66b570bf7a1c1a1197f26ea261c556af06004fb14aceacb8ca0949afa373",
    "normalize-as y --field gf3y-laurent":
        "6b71a9bf711577c04b2628024d5422cb31f351bbaffa9b4f9e378806787d95f3",
    "normalize-as y --field gf3y-laurent --budget 3":
        "732e2ffe50a5d5615cce31618d8bf2ef716cbc239d1a515e19eb429e7bc6f4a1",
    "normalize-as y*X^(-2) --field gf2y-laurent":
        "98a1d34764f80f20386d87072257f2f26f1ea272dca24715162c351d8c192176",
    "normalize-as y*X^(-2) --field gf2y-laurent --budget 3":
        "6777b74f70f2360ac876ae3268e9fc7860d64ae2aa19b60d33e0461e6d420467",
    "normalize-as y*X^(-3) --field gf3y-laurent":
        "fbb460d9c1cf98a25d81e0523db47e2cc6fd73a045dd88c9935d7c9c3aad4020",
    "normalize-as y*X^(-3) --field gf3y-laurent --budget 3":
        "a88a924d9d749b71905e4d936ef67d50505d63d32015b7d1ba0119b71ba3fb6e",
    "normalize-as y*X^(-4) --field gf2y-laurent":
        "8958708de1fa0eab4ee0268b8a425ca2adb8061530c241850ba90334331f67a6",
    "normalize-as y*X^(-4) --field gf2y-laurent --budget 3":
        "ab89fd567fa0e41662ba8b7223968083b28dc982aba0b9c7a92bcad5724116f9",
    "normalize-as y^2*X^(-2) --field gf2y-laurent":
        "bd57034f951e298f185defb1381659a50e8ce9663199207b2555f50c4e209ef6",
    "normalize-as y^2*X^(-2) --field gf2y-laurent --budget 3":
        "42763e2dd0b28c55df091d43bb372c39193318bbcb02ea424a5a3309c3882ff0",
    "normalize-as y^3*X^(-3) --field gf3y-laurent":
        "f6e283eac306808ffc98c767adf001a0d73477e7501c2bceb7c711e15ccbf82c",
    "normalize-as y^3*X^(-3) --field gf3y-laurent --budget 3":
        "07b5692197138c8f7ec9221dc55d0e71e472061d4e61bcc24b8c1f50983c1d1d",
    "normalize-kummer 1+pi^(2) --p 2":
        "8e0fea23ac3cea9e186e9f68fb9794599508ebfbab379dd362a5433fe60c87f7",
    "normalize-kummer 1+pi^(2) --p 2 --budget 0":
        "3cc857dc065a228f44987282b3ff36fff8a19f008c59d3078a91502292a50948",
    "normalize-kummer 1+pi^(2) --p 2 --m 2":
        "600083ab0bba30da717f878db50ac7b2f33f6c69aed2420250fd57640d8d07b9",
    "normalize-kummer 1+pi^(2) --p 2 --m 2 --budget 0":
        "0d06116af71c37e195a154674e7b08eeb03cd01468e662c4af7987b32ffb7416",
    "normalize-kummer 1+pi^(2) --p 3":
        "e9fa1a926c3d41645978759f42a7cdc61cd5aeed13f211ef61289ca6d6820111",
    "normalize-kummer 1+pi^(2) --p 3 --budget 0":
        "be59407090aa080265ba93481acc2d0fc58304b26ee64b5bd8f41224a800f7d4",
    "normalize-kummer 1+pi^(2) --p 3 --m 2":
        "588e7afdff8ecf15422e7a113f7dc93004e212649a30614990981589cc774fd9",
    "normalize-kummer 1+pi^(2) --p 3 --m 2 --budget 0":
        "7d0abbbdd3af2c1833f6069607bf2a9191daf16be2eff7911a1bd2d3bc4179f2",
    "normalize-kummer 1+pi^(2) --p 5":
        "44e68f0155c0e8bd8f65de4bd1c9e3f77164d88b9ed9e34d6aa6207c91defe76",
    "normalize-kummer 1+pi^(2) --p 5 --budget 0":
        "885dd30be9824da24b08f9516351f28557dd339f20f251a46f50f20768f78a4c",
    "normalize-kummer 1+pi^(2) --p 5 --m 2":
        "ddbb3582049a58a4bbfc51731334216f1d7f748c15d2dfe39ab9354a53488d5e",
    "normalize-kummer 1+pi^(2) --p 5 --m 2 --budget 0":
        "8573f5c04446dea389b9f9605871131895e1dac67e47ceea7f959549d3eece18",
    "normalize-kummer 1+pi^(3) --p 2":
        "8d12427262f019824c5a80bfb2f2516706389f7c18a399e09a0857c71bfd062d",
    "normalize-kummer 1+pi^(3) --p 2 --budget 0":
        "62d92a70053401a88ef56b0c1834913fa4e0ea575f3f1a3b8fc3b81a6011bb35",
    "normalize-kummer 1+pi^(3) --p 2 --m 2":
        "a9d54188b2d964fb95338e52406d4a76a74b512046901e7372b0391b3ff3598b",
    "normalize-kummer 1+pi^(3) --p 2 --m 2 --budget 0":
        "a4a7a7d7d72de25544305fd348768d0458c1063994f1375d1ace3ca3a4744434",
    "normalize-kummer 1+pi^(3) --p 3":
        "b41a3b4a7a8ae4ad21d9efb8b5490ef79f2302a0a0fa4802446145c71b23c93f",
    "normalize-kummer 1+pi^(3) --p 3 --budget 0":
        "cf61f9e343459736aceed392a208a20d1fdd3190636efc61bc78fffcd9c0c842",
    "normalize-kummer 1+pi^(3) --p 3 --m 2":
        "edbccb16274a097be3b890a2e0330ffb028ef18ea888b8c2e57de3ecee820197",
    "normalize-kummer 1+pi^(3) --p 3 --m 2 --budget 0":
        "bfdf27bcd862a213645108063420ae9de29ad003716113932f2f93b757ace873",
    "normalize-kummer 1+pi^(3) --p 5":
        "fe1e7564d6a56556e974b58b29a861164a66b22dc066c0dc7d49e669e625bcea",
    "normalize-kummer 1+pi^(3) --p 5 --budget 0":
        "5d58048bb3dc72048844cdfe1463a81f5e66ed8263ad69fdc1854c18e6df1126",
    "normalize-kummer 1+pi^(3) --p 5 --m 2":
        "1948e7112221f8154487dc5b6c32ab170501eb61ecfc229a2dc95d855f86355c",
    "normalize-kummer 1+pi^(3) --p 5 --m 2 --budget 0":
        "fa056e511033b71fc44faa031f67f259e3f5d4234be023c8b3583a54fe4913ce",
    "normalize-kummer 1+y*pi^(2) --p 2 --m 2 --with-y":
        "786b5b280b2c1063c9a871500899d8d76a6c5d6729373b873090ea19500f1926",
    "normalize-kummer 1+y*pi^(2) --p 2 --m 2 --with-y --budget 0":
        "f2949743a25aa79ef581dfb2ed46a201a4c6a3b4f768e53775ce65dc97c4b0ad",
    "normalize-kummer 1+y*pi^(2) --p 2 --with-y":
        "5aed094aa55e478083be576bc09dc7bdee2f82ee8052ae21d65a38916abc166c",
    "normalize-kummer 1+y*pi^(2) --p 2 --with-y --budget 0":
        "a2f5220d5ce0c152c5f684d2258c2972c8d1640285eba6a19b967a11a8629a58",
    "normalize-kummer 1+y*pi^(2) --p 3 --m 2 --with-y":
        "cff8be750fcaf4bb7bfbbe9857235aeca03d280ce3c2d031af888c3a33f67e19",
    "normalize-kummer 1+y*pi^(2) --p 3 --m 2 --with-y --budget 0":
        "e602662b2cd68581877770c470be57ae074564b09c8d1cc94d26cc57900e2671",
    "normalize-kummer 1+y*pi^(2) --p 3 --with-y":
        "6b13c305227c0642f53db0315b60d4bc873a61f7fef00f2c012bdadde57a7b88",
    "normalize-kummer 1+y*pi^(2) --p 3 --with-y --budget 0":
        "450ae5638b01039ed82742e9aba2de65975a1f4b8ab37099c031ed465abf08c3",
    "normalize-kummer 1+y*pi^(2) --p 5 --m 2 --with-y":
        "94109018504e8235cead54ce28e37984b06d99ad3755d177568344b296fb7335",
    "normalize-kummer 1+y*pi^(2) --p 5 --m 2 --with-y --budget 0":
        "3bf5d6c4107b012b411642c61c56bf95531623f6a7309ccbc556cc03b681bd63",
    "normalize-kummer 1+y*pi^(2) --p 5 --with-y":
        "44194316ca5bdb258e74be5510d3b19d4f288fef5375a9a0e762fc85e3bd524a",
    "normalize-kummer 1+y*pi^(2) --p 5 --with-y --budget 0":
        "2b8353a526a0047638764a9b4d69be055c97dd678a59eedcf88f941b4b0c39e6",
    "normalize-kummer 2 --p 2":
        "b506f855db90807f377a2c245f134c52bf9338e9a51bdf99cd190825224c3afe",
    "normalize-kummer 2 --p 2 --budget 0":
        "c93013bfb6362cf57d99c16fc7357f80aebb847cbaac9d0cc799713ff6bacde3",
    "normalize-kummer 2 --p 2 --m 2":
        "b38f4ccbbd73798cf4c67293b0390224ce28353ccb3b7a9751ad2bbbc94b0260",
    "normalize-kummer 2 --p 2 --m 2 --budget 0":
        "e03f4f4ec10c168bdbd2303c34250a2ada970ae68b6e7c2b8570f8af50ad748e",
    "normalize-kummer 2 --p 2 --m 2 --with-y":
        "a339bf6d05b30c11c753b4707e65a4e9367e43c0011789a594959619a9f170af",
    "normalize-kummer 2 --p 2 --m 2 --with-y --budget 0":
        "9e0b98d6dcd6c044d5013eee28b5d50b83e3649e198fdd688cd78f74db252c08",
    "normalize-kummer 2 --p 2 --with-y":
        "d97ea1fde62169ca49eb0b2dd0a76285c8435d9b179a551a4f50c5b24bf6c269",
    "normalize-kummer 2 --p 2 --with-y --budget 0":
        "22541ef9dac4f26e820488024349a307c0f4f0632b3540cc916b5e3f6eb10003",
    "normalize-kummer 2 --p 3":
        "89f3625354243f08a36cdaf0c720cd250a71c139858e6c3dd1510076a02da3da",
    "normalize-kummer 2 --p 3 --budget 0":
        "adda79ca36cd3a272d3df41e4a36f1dbf14b2cca612a9d4de40edf657e1c6aff",
    "normalize-kummer 2 --p 3 --m 2":
        "a0bb96a3c72b6bf6ba1697c895a7ceb82d91e3ea8b0454c86546477b6ffe31dc",
    "normalize-kummer 2 --p 3 --m 2 --budget 0":
        "b4c3122aba44bcc16b31ec284c660f36182cb5ebed3596fd661ef2136274df9b",
    "normalize-kummer 2 --p 3 --m 2 --with-y":
        "e419fcbb0d226d5706be10b87d70fa07d822bc22df08daf3e845280f62fa0231",
    "normalize-kummer 2 --p 3 --m 2 --with-y --budget 0":
        "bff3c11351ec665a19bbc7c4566ad43e59c1f953ce7d74632b71075b856d4b38",
    "normalize-kummer 2 --p 3 --with-y":
        "37f809df1617b22762164132fbea1290b6e51be0d4fe09d38b5ab07a60b51f23",
    "normalize-kummer 2 --p 3 --with-y --budget 0":
        "10187a0654efc8633a01e20ec3c83ab90ee32a08affe80f328283d0666d7c81e",
    "normalize-kummer 2 --p 5":
        "bfb77069f60fd8e7a9ebc9b9283c17bcd030cb24ab7020070a54f68f67042746",
    "normalize-kummer 2 --p 5 --budget 0":
        "640c91af1bd4850e1eb378e5575e858a79d5b115486a2dd57b180eac304fbe99",
    "normalize-kummer 2 --p 5 --m 2":
        "d32bb9c10a041ad7422d23e86023fbe5a6b399317b6135d943e00faeaedde80f",
    "normalize-kummer 2 --p 5 --m 2 --budget 0":
        "8770802d91684b112e68f1a64c8d39b25926dff75f1dcb5379723a14bf485ca7",
    "normalize-kummer 2 --p 5 --m 2 --with-y":
        "3613d18f727e5ca0143beaf26ddc2d3c037caef914d7f2489b4df3b707eb8aaa",
    "normalize-kummer 2 --p 5 --m 2 --with-y --budget 0":
        "0ff5037537b097ee7bcde053479683ba5ae038f58eeb05b4c6dae325a5c0cc6e",
    "normalize-kummer 2 --p 5 --with-y":
        "0ff1f0a77e8214645b09086aa718ab1121fb6b23562ac45db56fc157cb0fbacb",
    "normalize-kummer 2 --p 5 --with-y --budget 0":
        "0026f6a41790acaf4cdbd7257f069a87c2f3379b9320ac90ced122464615f602",
    "normalize-kummer 3 --p 2":
        "bc14fd6d90c0d10873894f567599a7d7a1171a1f0c68d6b3b0f88894331019bd",
    "normalize-kummer 3 --p 2 --budget 0":
        "61381c066eb29dfa494d4fef48fd714f1969c1140e90215e4ad66d73f2b79a5b",
    "normalize-kummer 3 --p 2 --m 2":
        "fa89106cfc8b7be93711063f6ca640b7c8e23ad64adfd1845e7a2af7953257d0",
    "normalize-kummer 3 --p 2 --m 2 --budget 0":
        "cfa942a5411441ec5e70ba91c7c7af054acb60c3f2603b01c6a63785b043ceab",
    "normalize-kummer 3 --p 3":
        "86c130acdd8c3e69df3fe016040bb963a1041d8cb3e0a3216ef8889866918afc",
    "normalize-kummer 3 --p 3 --budget 0":
        "8914d2bc2c2c66cc414ae7025516368d4f548f46d6a43f9129634afc4ef3501b",
    "normalize-kummer 3 --p 3 --m 2":
        "d03b7e65aa8df23e64ccc43da69a52d77d453e53223d6448f198340d03aed9f3",
    "normalize-kummer 3 --p 3 --m 2 --budget 0":
        "0d1fe5464ed9a4b31a6bddca724461ec381d4481b5b0ac44ae86f4f296a25f8c",
    "normalize-kummer 3 --p 5":
        "812a9b1e8fc3867b3fdf491c2201b250be59e060a24d9042134068e459fe47d6",
    "normalize-kummer 3 --p 5 --budget 0":
        "af6861a2c23494c1c97e5557d213c94db4a7a4946080fc0efddb01b86af82b5d",
    "normalize-kummer 3 --p 5 --m 2":
        "a45a964f846a95ef7e9bc610d0cf776326b7db6e9dd0ef0a7c73ac689236db3a",
    "normalize-kummer 3 --p 5 --m 2 --budget 0":
        "035240173688d3d9152ca6d275f6994c0c8ee4a0badc8b398ad32baa4a1ed089",
    "normalize-kummer 4*3 --p 2":
        "14ac1aafdcd1b82640b320edee51c60cc3f6a88d5c687a82fdd3cfdb20a6936c",
    "normalize-kummer 4*3 --p 2 --budget 0":
        "b39ce119ac90c948442ba19cde25356241acdcc39bccb5b364213977fa787302",
    "normalize-kummer 4*3 --p 2 --m 2":
        "b1419bbabcd7d5b76dbd75dce57ab83c7fdb9b9e1188bad1fa19f7c7c5b7634e",
    "normalize-kummer 4*3 --p 2 --m 2 --budget 0":
        "5bc3ffe4d1d421278ba4c8c09fda544bf20dcf0c7c2e2c5a0b9ec0509b27e4fd",
    "normalize-kummer 4*3 --p 3":
        "afab2112ba0a6bf7016104d6851e9a03b2d2858f76d6878a47e55744eecb88c4",
    "normalize-kummer 4*3 --p 3 --budget 0":
        "5b1603ee72b759c9443de0b28cf4d402379733ac462b701becc05d7dcc247d50",
    "normalize-kummer 4*3 --p 3 --m 2":
        "c24b4d5d8bf06c95e14aec1b2caa7fae30b45304d5078b8139a72d1fc7f7543a",
    "normalize-kummer 4*3 --p 3 --m 2 --budget 0":
        "b818ae2f14407cc077ac577d5d1d615b1f1ce132409593a534c437f04d7b95af",
    "normalize-kummer 4*3 --p 5":
        "b34ce7f24cee473c44ca091fed86f44526023a088777efff00d0babe520ab099",
    "normalize-kummer 4*3 --p 5 --budget 0":
        "ce8c6fe95da84733ed35ea22f10bf9d306ea5825edbac5998d1828766e5aff37",
    "normalize-kummer 4*3 --p 5 --m 2":
        "8c7d04df2d12836dde7495990dd95ec8ce94556eb7eabec9e2841d16919d9598",
    "normalize-kummer 4*3 --p 5 --m 2 --budget 0":
        "c419149ea2830a12f3923f205c0f83e5e6ef2fb4fa6db175c0da51b8ca2e91f5",
    "normalize-kummer 9 --p 2":
        "64fd124166b5ffe269199e11efe6187d62f9df742e81f2000d109ddf5fc93874",
    "normalize-kummer 9 --p 2 --budget 0":
        "2b13bb35418b64435e35029ca450136eeaad54967f2da175c8b9d725d5fa0d00",
    "normalize-kummer 9 --p 2 --m 2":
        "a401c435846351f59b68b9e2790c11dece23c8315c777a0c41a3413d12128f0b",
    "normalize-kummer 9 --p 2 --m 2 --budget 0":
        "dc3acce15801d7a336eb14751a9f3e6eddadb9fd789cb1a79108052a8b79bc66",
    "normalize-kummer 9 --p 3":
        "9ed453ae5416fcdae9112e33b8cd6246e00511d5e90229e84edbd7d182a73243",
    "normalize-kummer 9 --p 3 --budget 0":
        "dc2788c74299464c8fa8380b86b0115b202428770dbe571fc9921d2a720caaaa",
    "normalize-kummer 9 --p 3 --m 2":
        "5037fbed7bf0af3407c3ad313455be2f24a9f3e82d23ef2749d3d69eec4f1f00",
    "normalize-kummer 9 --p 3 --m 2 --budget 0":
        "26675264adbc53e8fd8210daf3f090eadc31a26fca9a5a893a92a556739afe84",
    "normalize-kummer 9 --p 5":
        "19e3a82961eeb5006be0f6e2658eca19418c7ea2e246a3c56ccd2159a19eba0b",
    "normalize-kummer 9 --p 5 --budget 0":
        "27794ce01127f1030bec1d872ff87f03fe9180b365b597be62b3d4b2bde1e441",
    "normalize-kummer 9 --p 5 --m 2":
        "42483c4f7e82e445e40f60adcd2e1ad47662861599a419228775afd0f01a112c",
    "normalize-kummer 9 --p 5 --m 2 --budget 0":
        "7f48d49fd329fa0f370bcfbf630337cee881a732da1ee5684dccd32bc2cfcd0a",
    "normalize-kummer pi^(-1)":
        "204d61ca9117a0e067822044eb940e2063030a82389ec5a2c4fd51d0ce51c440",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 2":
        "db460eaa8fcd391ed5c87619281293b8357aeacc1b791c82c3565c09fb4934cb",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 2 --budget 0":
        "4ab13c3fb7946363172d4a6b7a2753a25638159d3f1f6b8429b8830505bb207d",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 2 --m 2":
        "ba6672b3bb5f2a2ae9290dd33a59a2c10ae9e2ac646bc49850542eab4475eb27",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 2 --m 2 --budget 0":
        "9348a775809f21f7b0d5f1cbe6ad876675d1eb5af477c7834989453385f8b2d1",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 3":
        "8a591acb452399dea5d9f6317d494cc56298c8e216933a445b6ce3529542fa20",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 3 --budget 0":
        "3fc285635a0e1aca704b04012e3065048d0afe1a1ec6afdb71a30916d49ec8f1",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 3 --m 2":
        "70f1c91096d14f281284a19fc000ea7ead7a177a2d216597363d666b73af99a5",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 3 --m 2 --budget 0":
        "cf59a38dbf2bb98157b9cc99c267b0281a06ce76858fda0d067d892dc4852b47",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 5":
        "198284b436614f59c6d42fe5f06f50799576e34a927f09a298e584552740b030",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 5 --budget 0":
        "c69e01a3e28b7a0bc12f2fa3f295019f0ee794f67234e9d418fc078bb05e0bc0",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 5 --m 2":
        "172a6dd7efd976497d7d1f2097bbc399c22a10ff0fc39977aacb9cf2579705e2",
    "normalize-kummer pi^(2)*(1+pi^(2)) --p 5 --m 2 --budget 0":
        "bbeedac5e4772c23b949e1470a4134921dee4f9b129244630582488ea61e0df9",
    "normalize-kummer pi^(2)*y --p 2 --m 2 --with-y":
        "3a8a3a6adf5453df4dfd9f9c2de9a059e352d55c21adfa63b8d047e643b6b2c4",
    "normalize-kummer pi^(2)*y --p 2 --m 2 --with-y --budget 0":
        "daa94f4615fe4343237f6d3180c52b269df92a894912618722a88aacbf7b1d27",
    "normalize-kummer pi^(2)*y --p 2 --with-y":
        "3dad96edc9365f9f85333cba987266aceac0682f094787a22a21126742dcbf9f",
    "normalize-kummer pi^(2)*y --p 2 --with-y --budget 0":
        "7c966f592ee8851e31d6512432914479ae187b9db040fe3adeba35ad2ed187d8",
    "normalize-kummer pi^(2)*y --p 3 --m 2 --with-y":
        "815be37f58f0a222c0a7549682f8d8d788d9cb090971e16b49bb5b0c98c08019",
    "normalize-kummer pi^(2)*y --p 3 --m 2 --with-y --budget 0":
        "a90072cbacb6579d672ce7f5a68674fbcfa3523623f915c05165298367a7ed1a",
    "normalize-kummer pi^(2)*y --p 3 --with-y":
        "e7f9cf4430b89064616d31860e2fea97ba0b5a6256e216139dae7ce540137d4a",
    "normalize-kummer pi^(2)*y --p 3 --with-y --budget 0":
        "0fdd1019a3c349ec2e9ed83aadc10005cf2db47f0ba7048960c57e9e984e674e",
    "normalize-kummer pi^(2)*y --p 5 --m 2 --with-y":
        "8b295dcf01cbd48d7915086ead3f14bc5fcadb18104856d4b39d0f43d2a140bb",
    "normalize-kummer pi^(2)*y --p 5 --m 2 --with-y --budget 0":
        "716f8faeef93ed9f5a1822070851712eeaad0fe3e6fd0043c1dcc95c1ec1c362",
    "normalize-kummer pi^(2)*y --p 5 --with-y":
        "f4a07951258c9cfcfeb43758cd481bafd19835fbc3d4d18c4108ed949a81a3d4",
    "normalize-kummer pi^(2)*y --p 5 --with-y --budget 0":
        "e8ce5214630dcbdb095976dda97c6c8631f414eef1da4d67765c7c9121a08a9d",
    "normalize-kummer y --p 2 --m 2 --with-y":
        "4d9da9de3d8dcf3ec7fbeea6716c2c548882d540ccb1fd08b56d1b7dc4aaec0d",
    "normalize-kummer y --p 2 --m 2 --with-y --budget 0":
        "0ecbc3ffa3776b7fd676d8461eacdda4cea6f7c7123b4a52b8f19ba8b1b6c9c7",
    "normalize-kummer y --p 2 --with-y":
        "e30456f0618e613e668ac9354344a8eda124746bde734fcd05b7fc6a8b77b3ed",
    "normalize-kummer y --p 2 --with-y --budget 0":
        "dc146b59a92d0f21d6e1a767f0adb32bf44c2c14e2deeca90d4baca2bac04039",
    "normalize-kummer y --p 3 --m 2 --with-y":
        "1c04e51bfc27412729eb394779ab600f78eec20050230d84b29adbdeb2bbd853",
    "normalize-kummer y --p 3 --m 2 --with-y --budget 0":
        "f1b899191548a8e99042e6ffb594788b24895058a14eacade0c4803954d2c2e3",
    "normalize-kummer y --p 3 --with-y":
        "64ac9f325a1e1c10ffdf9ff34a279bbcd26a9dec362f77d5ff5f710b9a4a5ac1",
    "normalize-kummer y --p 3 --with-y --budget 0":
        "9a10a069080433bc06be7a72bb86321d5c71f8a70209b9102e77d8413b8bf3a7",
    "normalize-kummer y --p 5 --m 2 --with-y":
        "5fcbe1f8c1afc0624d0b4521ec033eb761c2a96ab2049bb9e0cbc67ec16f6971",
    "normalize-kummer y --p 5 --m 2 --with-y --budget 0":
        "7c2f38feb07cfd08e46323ab99aeb7cdf7ef94a5dd7222c7703299497007cb00",
    "normalize-kummer y --p 5 --with-y":
        "bfd4a78f3f3bc8b2e998ab8b3eefcb606c6bff70f0257ead06a9177e9d811ae0",
    "normalize-kummer y --p 5 --with-y --budget 0":
        "22dc4831b885671499697ea82895b742602e21a603a8ab55de5f95f7b77f6a92",
    "normalize-kummer y^2 --p 2 --m 2 --with-y":
        "3a606d492eea4f49e8d18e66d68943e13cc8d2490b2c2af2c5f4c0ea6deb0ff7",
    "normalize-kummer y^2 --p 2 --m 2 --with-y --budget 0":
        "40c5e1f0e9cee935ffb2426262095db82b9fc02afa3ed70cca8c202270b6bcfb",
    "normalize-kummer y^2 --p 2 --with-y":
        "a60f0d93eafb1dbb451476f11a9e9dedacf2981cf3795a869cddfcb487304fe1",
    "normalize-kummer y^2 --p 2 --with-y --budget 0":
        "6e87135f03704ebd0a91e55a019e969cd34b2fbb1435d4686fd0c23e1179d754",
    "normalize-kummer y^2 --p 3 --m 2 --with-y":
        "67e01fe88b26917dac12813f525e670e7ddfa1bf46deeb27e4fc5ce8d6752a1f",
    "normalize-kummer y^2 --p 3 --m 2 --with-y --budget 0":
        "cfb2e44f26bb35537b4f0be7f3d2e5b4fb3a5efb95d7e5bcd97bf5678059763e",
    "normalize-kummer y^2 --p 3 --with-y":
        "3d83ba7928367867d6dfa1ea6d65009847632a87a36979c0df2769969d747e8a",
    "normalize-kummer y^2 --p 3 --with-y --budget 0":
        "e8f95aa4ef268bad02aef224f49f22fb69d0b6bd8cfc9968399b27fe16f5ee0a",
    "normalize-kummer y^2 --p 5 --m 2 --with-y":
        "e47e317960785676e83acc157e244bdc68313a4a06a1ac91d5134d51d987337f",
    "normalize-kummer y^2 --p 5 --m 2 --with-y --budget 0":
        "1d721a0ae30ee754b5a52fa2eafc3d82f0e34f5f562fe206f3ec69e6564855ce",
    "normalize-kummer y^2 --p 5 --with-y":
        "25e3369fecbe99229a9fd05ddcee38422c63952e6ce2406a944073d890fe1836",
    "normalize-kummer y^2 --p 5 --with-y --budget 0":
        "cdbcb3c90bd46b051bc5e9e23969490d956cc5c16ab20e9a6e6cc80642a19a13",
    "run-corpus":
        "4f05975f9affae7f781a46463900c3084725a1a8f60d14c2726ef0b20a357e55",
    "verify-norm-ideal X^((-1,0)) --field gf2-lex2 --count 4 --precision 12":
        "d2807bcafdeb5727bf5046f748c4a73db80fe15a271bd18be209c69e9f7db7e9",
    "verify-norm-ideal X^(-1) --field gf2-half-powers --count 4 --precision 12":
        "37d61333ce1ae38d9eced8f7536d37348e9f263983e91429f3d97bbdb979aae8",
    "verify-norm-ideal X^(-1) --field gf2-rationals --count 4 --precision 12":
        "832c1d54978a31108ddd8fe56e1094e36abc712cb6d3d273fa6b812af5f9d6c6",
    "verify-norm-ideal X^(-1) --field gf3-laurent --count 4 --precision 12":
        "ac8848ad74852288c0e177f954172108f1650efb89c8ffc7d53fd4b30a453fb5",
    "verify-norm-ideal X^(-1) --field gf3y-laurent --count 4 --precision 12":
        "ac8848ad74852288c0e177f954172108f1650efb89c8ffc7d53fd4b30a453fb5",
    "verify-norm-ideal X^(-3) --field gf2-laurent --count 4 --precision 12":
        "70f0f2192b0f38500e3fb68a3027e9cf663df3a9e52680ba66c5939ed8311237",
    "verify-norm-ideal w*X^(-1) --field gf4-laurent --count 4 --precision 12":
        "9fa49408bdbbe4e632420a83afdc4e5e2e28aecd1f58e3636314fc1a4ba0c45b",
    "verify-norm-ideal y*X^(-2) --field gf2y-laurent --count 4 --precision 12":
        "a214e12279f12077074e5e8c70b90e992949db8c5fd25f20b7082986a9f69575",
}


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_bytes(key, capsys, monkeypatch):
    monkeypatch.delenv("VALUATA_SEED", raising=False)
    assert _run(CASES[key], capsys) == GOLDEN[key]
