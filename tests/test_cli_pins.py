"""Pins of the command layer: the ``--json`` bytes and exit code of every
command (with its ``--perturb`` control and malformed inputs), the option
surface of every subcommand, and one parser per process."""

import argparse
import hashlib
import json
import os

import pytest

from qilab import cli

# argv -> (exit code, sha256 of the --json stdout, last line of stderr)
JSON_PINS = {
    "rmat ybe": (0, "af993460c03c92b01f51c39158393645bfb0589ea283342cdd3b9695e96ea177", ""),
    "rmat ybe --a 2 --b 3 --c 5": (0, "df470c8c6b78b9f147e3356d084f0e1dd8238b8410406a47bb9b7679d01d3793", ""),
    "rmat ybe --perturb": (1, "1be046fc3f4a073634b947046701411a93b454f58528c5f2b6d5b2cbc77f4e6e", ""),
    "rmat ybe --a q": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: expected a rational constant, got 'q'"),
    "rmat yang --cutoff 4": (0, "6425b6291c730ae61d2388bcbcb364faf520c1bb4200a76b5ab6b649fb25b3df", ""),
    "rmat yang --cutoff 4 --perturb": (1, "0387f20a0c7958ddf6541fad8e6508b1922c87090eff36ea22431deefadc9486", ""),
    "rmat yang": (0, "c4e85e053fc3220e331371df00bd4522757cdcf9e4d88d497c21bafa461c7edd", ""),
    "rmat yang --cutoff 2": (0, "f9b887c85881c6c1b0f0ff2fde4cb3b9cc76f7ef7791a9d1b46e21411ee51ba4", ""),
    "rmat yang --cutoff 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: denominator series vanishes to the cutoff"),
    "rmat yang --cutoff 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cutoff must be at least 1"),
    "rmat normalize --a 2 --b 3": (0, "c697215a51ce5f2a2bca99e0c5b05d5eb201141eccadac23d22646c0c0e5be79", ""),
    "rmat normalize --b 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: scale b must be nonzero"),
    "rmat limit": (0, "96b69801c73b34a579b7c862b31180f24508a1f9b1817b3128f13a3d9bc8f5ad", ""),
    "rmat limit --a 1 --b q --point 1": (0, "8e16e3a431c2f401455e9b7d15072eab7aa9ba5b69964c4acb27b648f129680e", ""),
    "rmat limit --a 1 --b 1 --point 1": (0, "d0ceb355e7dcef5ece033908d172466a587528609bdb14f2c05bda428d6be7c1", ""),
    "rmat limit --a 0": (0, "1c80532639416942133858a02e87caaab953ec7f50c8d2d4c54426d8ac35987a", ""),
    "rmat limit --a z^200": (0, "31a846a68faa41b922e4168eb3fcf010ca783a525ab4ea183cdb911725f4bcb0", ""),
    "rmat limit --a (z-1)^60": (0, "4cc414cfd24a4e8821aab1dd45bec0db4be1e3053fa4fc995989b7ac7ed92ccc", ""),
    "rmat limit --a (2*z-3)^40 --point 3/2": (0, "079f2c3127c4d32a6d74d6fda8a739212377ed0f25742f3af1afb85d640a84fa", ""),
    "rmat limit --a z^3 --b q^4 --point 1/2": (0, "d9c0850d25c7822678d870e883124dd6df2dd8883b13db0d5f3d202f37955c06", ""),
    "rmat limit --a t --b 1 --point 1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: entry (z*q*t - q)/(z*q^2*t - 1) already contains t, the expansion variable"),
    "rmat inverse --points 2": (0, "3833f64f79abed8a1ee4849f1858b572909b2b8a04647eb5b5991ccc15260902", ""),
    "rmat inverse --points 2 --perturb": (1, "9f2713e8b3c29ae7374967d36904f11142e894f6bb13a699ab0d067859226240", ""),
    "rmat inverse --points 0": (0, "b7df458d34eed81b4617c79fbde7a427c73e85f6ccae7b68d762f017217d088c", ""),
    "rmat inverse --points -3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: points must be nonnegative"),
    "rmat hexagon --points 2 --seed 1": (0, "9359625d5c5fd55af164a247804513ba0d2e2d55b9376e12dac20354345d348f", ""),
    "rmat hexagon --points 2 --perturb": (1, "f87bddcfb192364c8c9f3b78bc9201758a738e290c78a8cfc2284d5ed25d5e53", ""),
    "rmat hexagon --points 0": (0, "37064557791afa90e3aa8c12da0c7365eec29f9f0919ff1043befecbc14bfb35", ""),
    "rmat hexagon --points -3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: points must be nonnegative"),
    "rmat intertwine": (0, "de10e40ba3f6f923de1f2ed5ed97c85fd329451e85f046cc523955f3452a60d7", ""),
    "rmat intertwine --perturb": (1, "21987fd8ae39d424826a637846d675b16aa8bf86222959cb259fc629f293a677", ""),
    "chain rtt --spec l1.json": (0, "05933d733bbccb001ffe4994d55bd040ebcc754b6a8e94269104e0ea6d3a2ef3", ""),
    "chain rtt --spec l2.json": (0, "2fa4c2aff76d55a2585df2469163e0472e6058d8467aadefb8eed6b165fedd1f", ""),
    "chain rtt --spec l2.json --perturb": (1, "336a40e811158f580a4577727f1034442805375e1a4a719e75db25c884721d92", ""),
    "chain rtt --spec l2.json --mode numeric --samples 1 --tol 1e-9": (0, "1c129468fa0530099b2634fbe18ff1e290edd1370a9f266834dee86dfbd1d08f", ""),
    "chain rtt --spec l2.json --mode numeric --samples 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: samples must be at least 1"),
    "chain rtt --spec nope.json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cannot read nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    "chain commute --spec l1.json": (0, "13155e069ae5d573ea4b05db6e1548cb59c5da5d965407a7d94b62dc5eccbcb4", ""),
    "chain commute --spec l2.json": (0, "a37a08ec22d9bc21d91cc64212debdbc35f972df9d9c5b85e4abd2a731014030", ""),
    "chain commute --spec l2.json --perturb": (1, "efca8e943b7185ca035a3f2721605789ecbb1156d8ecbddee9e15199656d2519", ""),
    "chain multiplicativity --spec l1.json": (0, "d0b9a790975173e225fdc46ef2e9f30935059e909a688cc2410af647e25e5e9e", ""),
    "chain multiplicativity --spec l2.json": (0, "2c3668c70cbc94e7c87507d5a276fc1f9e55c782b389021f80ef10d552a82c68", ""),
    "chain rtt --spec sym3.json --mode exact": (0, "c6d1c7e408f0a052190fbbc4c6a3bee67f74596cadb84438ba5e0cb06abe1dce", ""),
    "chain multiplicativity --spec sym3.json --mode exact": (0, "e0cf74c669c4a4d840ffa4cee8e852f0dc8ab3dffd936da7ea734b7c6b8ec60e", ""),
    "chain multiplicativity --spec l2.json --perturb": (1, "694dbcdd8524db3195e012275a17cef26628b80bdc6ca6edb2d3658ffaef8d59", ""),
    "chain rtt --spec generic8.json --mode numeric --samples 1": (0, "9833cc3aa30d914b0f616ad421d4c05ff6f12a18e2f1d4ec89899f0f84bdb523", ""),
    "chain commute --spec generic8.json --mode numeric": (0, "b1ce4589c319c51b7e514e8d9776997ff1181a596359d1b7bd1ffe13eb32a781", ""),
    "chain multiplicativity --spec generic6.json --mode numeric": (0, "323aa85a90ac5a7823cd2c4123350486226071595a83dc4f67a5c87cb7321de8", ""),
    "chain commute --spec generic9.json --mode numeric --samples 1": (0, "0f9ba6d3ab7b854431b61d729c45da56b2b3a440b866f93cdbf650c2ce7314a3", ""),
    "chain commute --spec q35-5.json --mode exact": (0, "648a020aeb9eb2547cabe74214ebe713506ef6074145c5b00b6d0001c8d0162a", ""),
    "chain spectrum --spec l1.json --sector 0": (0, "8bf31a46fd1aaa0de0d327b8ba104613a9b05f193b1bb2a00dec3ba6cd4b28da", ""),
    "chain spectrum --spec l2.json": (0, "279adf672810e47578039714b7b63dfa012ebb205b9a40f54f256bf162dd84b8", ""),
    "chain tq --spec l2.json --seed 3": (0, "44b6955e746b7f83aa3104a8bdaf559e6964e7eadec5287a9e4dc1d76cf82f19", ""),
    "chain tq --spec l2.json --perturb": (1, "de34e1fe181b1130fcdf3804d433d9693e711a84a58d4503e748690b8e4b2b80", ""),
    "chain bethe --spec l2.json --sector 1": (0, "1ce9c5ae7544bec1eadeaebd7af233a39ccb47ac9940088f8c70d60d00a6b60a", ""),
    "chain bethe --spec l2.json --sector 1 --perturb": (1, "d4897e6f1ab5b4012d49333aa76dc03ea08366384795d486563467b07b275c36", ""),
    "chain spectrum --spec generic8.json": (0, "7375448fe17df03376b2d30c955f5d9e16de5b2c5594b3be2a86d314c3e5bc09", ""),
    "chain tq --spec generic7.json --seed 0": (0, "329c358ee898c6808b62476a636dcd838ea4d716ef17f554568ed2b149085e42", ""),
    "chain bethe --spec generic6.json --sector 2": (0, "eded267b6011b1a13ef148ae5abbdd991912b552a0adae7fab3d8b78d6e95139", ""),
    "chain bethe --spec generic7.json --sector 7 --seed 1": (0, "2308eb267053549e379d551342077355224017f0ba27a0873acdd0207e755b04", ""),
    "chain bethe --spec l2.json --sector 9": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: sector must lie between 0 and L"),
    "chain tq --spec l2.json --sector 9": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: sector must lie between 0 and L"),
    "chain spectrum --spec l2.json --sector 9": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: sector must lie between 0 and L"),
    "chain bethe --spec l2.json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "qilab chain bethe: error: the following arguments are required: --sector"),
    "chain rtt --spec l2.json --mode bogus": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "qilab chain rtt: error: argument --mode: invalid choice: 'bogus' (choose from 'auto', 'exact', 'numeric')"),
    "cluster mutate --quiver example.json --at 1 --at 1": (0, "1a629e893f4a1296be26280293d0e567aa7a3c88098fbe59b5d102d9a1e88fbf", ""),
    "cluster mutate --quiver example.json --at 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: vertex 2 is frozen or out of range"),
    "cluster explore --quiver example.json --depth 4": (0, "5d1e0db8e0a1fd80b55d9843e9633a17e30fa54db54d3496d435f3e9ce35492c", ""),
    "cluster explore --quiver d4.json --depth 12": (0, "d97e6cbc1fe739d3e07059018558f3888147bc6644b3c40ccc4c05d01086c8b0", ""),
    "cluster explore --quiver a4.json --depth 14": (0, "ab974b6f032b7e349d3634e54c45c5c147f5441ad4f4ecd3b39fb4419a13c5d5", ""),
    "cluster laurent --quiver d4.json": (0, "4fb7f0cfd610c03d249f6d601ac93fc08dafcd98745a837e806798b0f577e4dc", ""),
    "cluster laurent --quiver d4.json --perturb": (1, "784555636a8f82b891610fd0bc8b92957a405c5742a91c9596a59790e8a57296", ""),
    "cluster laurent --quiver example.json": (0, "48aa6a2329eef1242f69264ecf88188199724a89bb061d23f0f09369cdc231d8", ""),
    "cluster laurent --quiver example.json --perturb": (1, "331735933056508a5c99bd2c7820a5b27e8663c570c158ed7b6b96ff582709e5", ""),
    "cluster explore --quiver missing.json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    "stab roots --n 2": (0, "88bc65b939905a8e871e6214fcb8c40d84ab64bebb1ec11b78a09ef7245d5102", ""),
    "stab roots --n 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n must be at least 1"),
    "stab order --n 2 --chamber 1,0,2": (0, "bebb004755f99815e11ce0d59f5d5153a0bdbcba515cacf19a241f914ed677f8", ""),
    "stab order --n 1": (0, "f3cb2a10dddad24f2840c4176c2281cd5de2470029a38b26e3cfdca5ec023935", ""),
    "stab matrix --n 1 --chamber plus": (0, "ce5120c85c6b3f3d3d6782de19f5fc6cbc61d2cee61a034849da4aba6704c98f", ""),
    "stab matrix --n 2 --chamber 1,0,2 --polarization 1,-1,1": (0, "8d0e76eecc8d8e9a3c926542d5b4b7993c26205689c960ed137c870f9ab67df3", ""),
    "stab matrix --n 3 --chamber 2,0,3,1": (0, "87f56928ae22728bbc40d026264897d204107881464aafa5753ee1f256accc27", ""),
    "stab matrix --n 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: --chamber is required for n >= 2"),
    "stab matrix --n 2 --chamber p0>p1>p1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: chamber order must be a permutation of 0..n"),
    "stab matrix --n 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n must be at least 1"),
    "stab matrix --n -1 --chamber 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: n must be at least 1"),
    "stab rmatrix --n 1": (0, "f4dc3f79e46a0993ec01b78ab213cecc934da36adfddc4df35c39fb2f413631c", ""),
    "stab rmatrix --n 2 --chamber 0,1,2 --to 1,0,2": (0, "3417b08fc124a92b565ca7e478c2af7d15312250a2358de14c35b3ba0a08c752", ""),
    "stab cycle --n 2 --face u1=u2": (0, "bbe0ae312d71c7c371e6a3e15c17ff23076649e2db88ede97c86e0656a6caa00", ""),
    "stab cycle --n 2": (0, "bbe0ae312d71c7c371e6a3e15c17ff23076649e2db88ede97c86e0656a6caa00", ""),
    "stab cycle --n 2 --perturb": (1, "3d40840cb9ebbadeb434214b64b0959590c3cba5177c3f7aa1e793cfc00ab6ce", ""),
    "stab cycle --n 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: the cycle walk is implemented for n=2"),
}

# Chain specs with one field outside the exact or the numeric domain.
EDGE_SPECS = {
    "twist-complex": {"L": 2, "q": "3/5", "twist": "0.5+0.2*i"},
    "twist-zero": {"L": 2, "q": "3/5", "twist": "0"},
    "q-complex": {"L": 2, "q": "0.83+0.21*i", "twist": "2"},
    "a-complex": {"L": 2, "q": "3/5", "a": "0.5+0.5*i", "twist": "2"},
    "site-zero": {"L": 2, "q": "3/5", "sites": ["1", "0"], "twist": "2"},
    "twist-symbolic": {"L": 2, "q": "3/5", "twist": "u"},
}

# "<check> <edge spec> <mode>" -> (exit code, sha256 of the --json stdout,
# last line of stderr): which field each check and mode reads, and the
# error it gives when that field is out of its domain
EDGE_PINS = {
    "rtt twist-complex exact": (0, "ed0d1e1c9932d473393027d8c288f9b914d02a6c9b7aca66d1e18788e646dd96", ""),
    "rtt twist-complex numeric": (0, "dfaa5b979f69f26d93c87c26b208a8f754424fe7aa17c2ef4f5c7227074b6229", ""),
    "rtt twist-complex auto": (0, "dfaa5b979f69f26d93c87c26b208a8f754424fe7aa17c2ef4f5c7227074b6229", ""),
    "commute twist-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.5+0.2*i'"),
    "commute twist-complex numeric": (0, "6c7cb8fcaf692d4db16683ea4a77039a6c9622f5a78acdfcac76375d8429e492", ""),
    "commute twist-complex auto": (0, "6c7cb8fcaf692d4db16683ea4a77039a6c9622f5a78acdfcac76375d8429e492", ""),
    "multiplicativity twist-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.5+0.2*i'"),
    "multiplicativity twist-complex numeric": (0, "9e813ab2b21893a648bab98caa6b4cce2be9c90cb3388c4b29d7dfee90b24c5e", ""),
    "multiplicativity twist-complex auto": (0, "9e813ab2b21893a648bab98caa6b4cce2be9c90cb3388c4b29d7dfee90b24c5e", ""),
    "rtt twist-zero exact": (0, "56241f143bfa3473b032d7d3b4bc621be862cd87b000be6b29fa1b20a4cab74b", ""),
    "rtt twist-zero numeric": (0, "a3139497c88894ffff198cdf3d1649d14fcc7773a16f32b09b5a9daa3416ae4d", ""),
    "rtt twist-zero auto": (0, "a3139497c88894ffff198cdf3d1649d14fcc7773a16f32b09b5a9daa3416ae4d", ""),
    "commute twist-zero exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "commute twist-zero numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "commute twist-zero auto": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "multiplicativity twist-zero exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "multiplicativity twist-zero numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "multiplicativity twist-zero auto": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: twist must be invertible"),
    "rtt q-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.83+0.21*i'"),
    "rtt q-complex numeric": (0, "8fb9b0a83e463fcf694458e576c13a56bda7a04d6f06a6e25eeeee1249902e97", ""),
    "rtt q-complex auto": (0, "8fb9b0a83e463fcf694458e576c13a56bda7a04d6f06a6e25eeeee1249902e97", ""),
    "commute q-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.83+0.21*i'"),
    "commute q-complex numeric": (0, "87bb5a68f629848f32648bea785feb867a2a9558a9492f3a2ff7b362f15d4f7f", ""),
    "commute q-complex auto": (0, "87bb5a68f629848f32648bea785feb867a2a9558a9492f3a2ff7b362f15d4f7f", ""),
    "multiplicativity q-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.83+0.21*i'"),
    "multiplicativity q-complex numeric": (0, "2f2ec817c1aafcf82bcaa5b2f8da76c6696c5a24abf7755c4d8bf2aa24a9aab9", ""),
    "multiplicativity q-complex auto": (0, "2f2ec817c1aafcf82bcaa5b2f8da76c6696c5a24abf7755c4d8bf2aa24a9aab9", ""),
    "rtt a-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.5+0.5*i'"),
    "rtt a-complex numeric": (0, "5624bd5828de00720032a463c8841f168511ce6964eaf3d96af4dce2959145f6", ""),
    "rtt a-complex auto": (0, "5624bd5828de00720032a463c8841f168511ce6964eaf3d96af4dce2959145f6", ""),
    "commute a-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.5+0.5*i'"),
    "commute a-complex numeric": (0, "43e7e455bb3a647fedd2b04793415c7116752d249fe293dbc3f81cceea9bbace", ""),
    "commute a-complex auto": (0, "43e7e455bb3a647fedd2b04793415c7116752d249fe293dbc3f81cceea9bbace", ""),
    "multiplicativity a-complex exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: unexpected character '.' in '0.5+0.5*i'"),
    "multiplicativity a-complex numeric": (0, "542a66124b5bdfaf6da6fdae673fc116fb628c2eb4663c9c4bc7ad58bea7a79a", ""),
    "multiplicativity a-complex auto": (0, "542a66124b5bdfaf6da6fdae673fc116fb628c2eb4663c9c4bc7ad58bea7a79a", ""),
    "rtt site-zero exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: site parameters must be nonzero"),
    "rtt site-zero numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "rtt site-zero auto": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "commute site-zero exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: site parameters must be nonzero"),
    "commute site-zero numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "commute site-zero auto": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "multiplicativity site-zero exact": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: site parameters must be nonzero"),
    "multiplicativity site-zero numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "multiplicativity site-zero auto": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: complex division by zero"),
    "rtt twist-symbolic exact": (0, "641f54f7b5d94ea02214a65354c8e04f4b646b1fad616eedccc009cfc03caf20", ""),
    "rtt twist-symbolic numeric": (0, "405dce5a56e9e3d61e4a43060ebac9f36c97ec4a0a04906e1f59846c27e985ec", ""),
    "rtt twist-symbolic auto": (0, "641f54f7b5d94ea02214a65354c8e04f4b646b1fad616eedccc009cfc03caf20", ""),
    "commute twist-symbolic exact": (0, "f787d0d1a992ab2f3d6f0b1736dae543940b0a5438afe2fc8c25155e56af31e9", ""),
    "commute twist-symbolic numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cannot read numeric value 'u'"),
    "commute twist-symbolic auto": (0, "f787d0d1a992ab2f3d6f0b1736dae543940b0a5438afe2fc8c25155e56af31e9", ""),
    "multiplicativity twist-symbolic exact": (0, "9d7f13ca830fc231345250249c1b3a3893d1e541e24ffaddbc3a911604493fe4", ""),
    "multiplicativity twist-symbolic numeric": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: cannot read numeric value 'u'"),
    "multiplicativity twist-symbolic auto": (0, "9d7f13ca830fc231345250249c1b3a3893d1e541e24ffaddbc3a911604493fe4", ""),
}

# "<group> <command>" -> (help, option rows); a group maps to its help.
# A row is (option strings, kind, default, required, choices, help).
JSON = (["--json"], "storetrue", False, False, None, "machine-readable report")
PERTURB = (
    ["--perturb"],
    "storetrue",
    False,
    False,
    None,
    "apply the documented breaking perturbation; the check must fail",
)
MODE = (
    ["--mode"],
    "store",
    "auto",
    False,
    ("auto", "exact", "numeric"),
    "auto picks exact for small L, numeric otherwise",
)
PARSER_SURFACE = {
    "rmat": "fundamental 4x4 solution checks",
    "rmat ybe": (
        "triple exchange identity",
        [
            (["--a"], "store", "1", False, None, "scale of space 1 (rational)"),
            (["--b"], "store", "1", False, None, "scale of space 2 (rational)"),
            (["--c"], "store", "1", False, None, "scale of space 3 (rational)"),
            JSON,
            PERTURB,
        ],
    ),
    "rmat yang": (
        "additive degeneration of the solution",
        [
            (["--cutoff"], "store:int", 6, False, None, "bound on the leading degree of each denominator"),
            JSON,
            PERTURB,
        ],
    ),
    "rmat normalize": (
        "rescale the cleared matrix to corner 1",
        [
            (["--a"], "store", "1", False, None, "scale of space 1 (rational)"),
            (["--b"], "store", "1", False, None, "scale of space 2 (rational)"),
            JSON,
        ],
    ),
    "rmat limit": (
        "scaled limit of the matrix at a pole",
        [
            (["--a"], "store", "1", False, None, "scale of space 1"),
            (["--b"], "store", "q^2", False, None, "scale of space 2"),
            (["--point"], "store", "1", False, None, "location of the pole in z"),
            JSON,
        ],
    ),
    "rmat inverse": (
        "unitarity of the normalized solution",
        [
            (["--seed"], "store:int", 0, False, None, None),
            (["--points"], "store:int", 3, False, None, "random rational triples"),
            JSON,
            PERTURB,
        ],
    ),
    "rmat hexagon": (
        "mixed-argument exchange identity",
        [
            (["--seed"], "store:int", 0, False, None, None),
            (["--points"], "store:int", 3, False, None, "random rational triples"),
            JSON,
            PERTURB,
        ],
    ),
    "rmat intertwine": (
        "zero-weight generator compatibility",
        [
            JSON,
            PERTURB,
        ],
    ),
    "chain": "transfer matrices on a finite chain",
    "chain rtt": (
        "exchange relation for the monodromy",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            MODE,
            (["--samples"], "store:int", 2, False, None, "numeric sample points"),
            JSON,
            PERTURB,
        ],
    ),
    "chain commute": (
        "transfer matrices commute",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            MODE,
            (["--samples"], "store:int", 2, False, None, "numeric sample points"),
            JSON,
            PERTURB,
        ],
    ),
    "chain multiplicativity": (
        "transfer over a tensor pair factorizes",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            MODE,
            (["--samples"], "store:int", 2, False, None, "numeric sample points"),
            JSON,
            PERTURB,
        ],
    ),
    "chain spectrum": (
        "joint eigenvalue branches",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            (["--sector"], "store:int", None, False, None, "magnon number"),
            JSON,
        ],
    ),
    "chain tq": (
        "shift identity with a polynomial on every branch",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            (["--sector"], "store:int", None, False, None, "magnon number"),
            JSON,
            PERTURB,
        ],
    ),
    "chain bethe": (
        "root systems against direct nonlinear solving",
        [
            (["--spec"], "store", None, True, None, "chain description JSON file"),
            (["--seed"], "store:int", 0, False, None, None),
            (["--tol"], "store:float", None, False, None, "residual tolerance"),
            (["--sector"], "store:int", None, True, None, "magnon number"),
            JSON,
            PERTURB,
        ],
    ),
    "cluster": "seed mutation and exchange graphs",
    "cluster mutate": (
        "mutate the initial seed at vertices",
        [
            (["--quiver"], "store", None, True, None, "quiver JSON file"),
            (["--at"], "append:int", None, True, None, "1-based mutable vertex; repeat to compose"),
            JSON,
        ],
    ),
    "cluster explore": (
        "breadth-first seed exploration",
        [
            (["--quiver"], "store", None, True, None, "quiver JSON file"),
            (["--depth"], "store:int", 8, False, None, "mutation depth bound"),
            JSON,
        ],
    ),
    "cluster laurent": (
        "denominators of discovered variables",
        [
            (["--quiver"], "store", None, True, None, "quiver JSON file"),
            (["--depth"], "store:int", 8, False, None, "mutation depth bound"),
            JSON,
            PERTURB,
        ],
    ),
    "stab": "attracting-order matrices and walls",
    "stab roots": (
        "wall directions of the arrangement",
        [
            (["--n"], "store:int", None, True, None, None),
            JSON,
        ],
    ),
    "stab order": (
        "attracting order of a chamber",
        [
            (["--n"], "store:int", None, True, None, None),
            (["--chamber"], "store", None, False, None, "'plus', 'minus', or '1,0,2'"),
            JSON,
        ],
    ),
    "stab matrix": (
        "envelope matrix for a chamber",
        [
            (["--n"], "store:int", None, True, None, None),
            (["--chamber"], "store", None, False, None, "'plus', 'minus', or '1,0,2'"),
            (["--polarization"], "store", None, False, None, "signs per fixed point, e.g. '1,-1'"),
            JSON,
        ],
    ),
    "stab rmatrix": (
        "wall-crossing matrix between chambers",
        [
            (["--n"], "store:int", None, True, None, None),
            (["--chamber"], "store", None, False, None, "source chamber"),
            (["--to"], "store", None, False, None, "target chamber (default: opposite)"),
            JSON,
        ],
    ),
    "stab cycle": (
        "cyclic wall-crossing product closes",
        [
            (["--n"], "store:int", None, True, None, None),
            (["--face"], "store", "u1=u2", False, None, "codim-2 face label"),
            JSON,
            PERTURB,
        ],
    ),
}


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return code, hashlib.sha256(out.encode()).hexdigest(), last


def _subparsers(parser):
    act = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in act._choices_actions}
    return [(name, helps[name], sub) for name, sub in act.choices.items()]


def _kind(action) -> str:
    kind = type(action).__name__.strip("_").removesuffix("Action").lower()
    return f"{kind}:{action.type.__name__}" if action.type else kind


def parser_surface(parser) -> dict:
    surface = {}
    for group, ghelp, gparser in _subparsers(parser):
        surface[group] = ghelp
        for name, chelp, cparser in _subparsers(gparser):
            rows = [
                (a.option_strings, _kind(a), a.default, a.required, a.choices, a.help)
                for a in cparser._actions
                if a.dest != "help"
            ]
            surface[f"{group} {name}"] = (chelp, rows)
    return surface


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l1.json").write_text(json.dumps({"L": 1, "q": "2", "twist": "3"}))
    (tmp_path / "l2.json").write_text(
        json.dumps({"L": 2, "q": "0.83+0.21*i", "twist": "0.64+0.13*i"})
    )
    (tmp_path / "example.json").write_text(
        json.dumps({"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]})
    )
    # benchmark sizes: exact L=3 with symbolic q, and the seed-0 D4 and A4
    # quivers
    (tmp_path / "sym3.json").write_text(json.dumps({"L": 3, "q": "q", "twist": "u"}))
    (tmp_path / "d4.json").write_text(
        json.dumps({"r": 4, "frozen": [], "arrows": [[1, 2], [2, 3], [2, 4]]})
    )
    (tmp_path / "a4.json").write_text(
        json.dumps({"r": 4, "frozen": [], "arrows": [[1, 2], [2, 3], [3, 4]]})
    )
    generic = {"q": "0.83+0.21*i", "twist": "0.64+0.13*i"}
    for L in (6, 7, 8, 9):
        (tmp_path / f"generic{L}.json").write_text(json.dumps({"L": L, **generic}))
    (tmp_path / "q35-5.json").write_text(json.dumps({"L": 5, "q": "3/5", "twist": "u"}))
    for name, spec in EDGE_SPECS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))


def test_every_command_json_bytes_are_pinned(inputs, capsys):
    commands = {tuple(argv.split()[:2]) for argv in JSON_PINS}
    assert len(commands) == 21
    mismatched = [
        argv
        for argv, pin in JSON_PINS.items()
        if _run(argv.split() + ["--json"], capsys) != pin
    ]
    assert mismatched == []


def test_chain_identity_edge_inputs_are_pinned(inputs, capsys):
    mismatched = []
    for key, pin in EDGE_PINS.items():
        cmd, spec, mode = key.split()
        argv = ["chain", cmd, "--spec", f"{spec}.json", "--mode", mode, "--json"]
        if _run(argv, capsys) != pin:
            mismatched.append(key)
    assert mismatched == []


def test_every_subcommand_parser_surface_is_pinned():
    assert parser_surface(cli._parser()) == PARSER_SURFACE


def test_every_benchmark_argv_parses(tmp_path, monkeypatch):
    # the benchmark runs these argvs in-process; a change to the command
    # surface that would stop it (say, dropping ``rmat yang --cutoff``, which
    # a warm-up passes) fails here first
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(here), "perfbench"))
    import cases

    parser = cli._parser()
    for workload in cases.WORKLOADS:
        built, warmup = cases.build(workload, 0, cases.Inputs(str(tmp_path), workload))
        argvs = [c.argv for c in built if c.argv] + warmup
        assert len(argvs) > len(warmup)
        for argv in argvs:
            parser.parse_args(list(argv) + ["--json"])


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert cli.main(["stab", "roots", "--n", "1", "--json"]) == 0
    first = len(built)
    assert first > 0
    assert cli.main(["rmat", "ybe", "--json"]) == 0
    assert len(built) == first
    capsys.readouterr()
