"""Golden records: the exact JSON line of one small run per protocol.

The lines were captured before bit strings became array-backed and before
plans encoded each instance once; the transfer-family lines in REJECT_PATHS
before the shared block-verification kernel replaced the per-block loops of
uqst and rrq-eq; the disj-rrr lines in REJECT_PATHS before disj-rrr plans
encoded their instance and prover polynomial once.  Any change to a record (p-hat, exact value,
lengths, instance echo) fails here.  A deliberate change to the RNG contract
updates these lines once, with a note in CHANGES.md.
"""

import pytest

from smplab.harness import PROTOCOL_IDS, ExperimentConfig, run

GOLDEN = [
    (
        dict(protocol="eq-rr", n=16, trials=40, seed=3, mode="both", instance="ne_pair"),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":null,"confidence_beta":0.01,"instance":"ne_pair","mode":"both","n":16,"options":{},"protocol":"eq-rr","repetitions":1,"scale":null,"seed":3,"trials":40,"workers":1},"exact":"29/49","exact_float":0.5918367346938775,"extras":{},"instance":"0000001101101111 0000111000011111","lengths":{"alice":18,"bob":18},"p_hat":0.6,"protocol_type":"RR","within_ci":true}',
    ),
    (
        dict(protocol="one-of-two", n=16, trials=40, seed=3, mode="both"),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"both","n":16,"options":{},"protocol":"one-of-two","repetitions":1,"scale":null,"seed":3,"trials":40,"workers":1},"exact":"5/7","exact_float":0.7142857142857143,"extras":{},"instance":"0000111000011111 0000001101101111 0000001101101111","lengths":{"alice":32,"bob":18},"p_hat":0.725,"protocol_type":"RR","within_ci":true}',
    ),
    (
        dict(protocol="ne-rrr", n=16, trials=40, seed=3, mode="both", instance="eq_pair",
             adversary={"variant": "NeTamper", "u": 3, "v": 2}, repetitions=2),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":{"u":3,"v":2,"variant":"NeTamper"},"confidence_beta":0.01,"instance":"eq_pair","mode":"both","n":16,"options":{},"protocol":"ne-rrr","repetitions":2,"scale":null,"seed":3,"trials":40,"workers":1},"exact":"1089/2401","exact_float":0.453561016243232,"extras":{},"instance":"0000001101101111 0000001101101111","lengths":{"alice":18,"bob":18,"merlin":32},"p_hat":0.475,"protocol_type":"RRR","within_ci":true}',
    ),
    (
        dict(protocol="eq-qq", n=16, trials=40, seed=3, mode="both", instance="ne_pair",
             repetitions=2),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":null,"confidence_beta":0.01,"instance":"ne_pair","mode":"both","n":16,"options":{},"protocol":"eq-qq","repetitions":2,"scale":null,"seed":3,"trials":40,"workers":1},"exact":"37249/82944","exact_float":0.4490861304012346,"extras":{},"instance":"0000001101101111 0000111000011111","lengths":{"alice":9,"bob":9},"p_hat":0.4,"protocol_type":"QQ","within_ci":true}',
    ),
    (
        dict(protocol="uqst", n=16, trials=3, seed=3, scale=1 / 3200, options={"a": 4}),
        '{"ci_half_width":0.9397089413348544,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":3,"trials":3,"workers":1},"exact":null,"exact_float":null,"extras":{"accept_and_far":0.0},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.6666666666666666,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        dict(protocol="qrq-eq", n=4, trials=2, seed=3, scale=1 / 3200),
        '{"ci_half_width":1.1509037065006824,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":4,"options":{},"protocol":"qrq-eq","repetitions":1,"scale":0.0003125,"seed":3,"trials":2,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"0000 0000","lengths":{"alice":7,"bob":1200,"merlin":448},"p_hat":1.0,"protocol_type":"QRQ","within_ci":null}',
    ),
    (
        dict(protocol="rrq-eq", n=4, trials=4, seed=5, options={"m_copies": 16}),
        '{"ci_half_width":0.8138118153593646,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":4,"options":{"m_copies":16},"protocol":"rrq-eq","repetitions":1,"scale":null,"seed":5,"trials":4,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"1111 1111","lengths":{"alice":768,"bob":768,"merlin":112},"p_hat":0.5,"protocol_type":"RRQ","within_ci":null}',
    ),
    (
        dict(protocol="disj-rrr", n=16, trials=4, seed=3, mode="both", scale=0.0232,
             options={"alpha": 0.5}),
        '{"ci_half_width":0.8138118153593646,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"both","n":16,"options":{"alpha":0.5},"protocol":"disj-rrr","repetitions":1,"scale":0.0232,"seed":3,"trials":4,"workers":1},"exact":"57020945437028865614076670011326624048157740070900540379513801/57302359991614086367621939200000000000000000000000000000000000","exact_float":0.9950889534981385,"extras":{},"instance":"0000001100000000 0000010001101111","lengths":{"alice":540,"bob":540,"merlin":42},"p_hat":1.0,"protocol_type":"RRR","within_ci":true}',
    ),
]

# Runs that reach the reject branches the single honest line per protocol
# above never reaches: for the transfer family a wrong block count, too few
# survivors, a failed verification test and rejecting repetitions; for
# disj-rrr a wrong polynomial, a failed block sum, no collision at all, and
# n=64 with an enlarged field.
REJECT_PATHS = [
    (
        "uqst-far",
        dict(protocol="uqst", n=16, trials=40, seed=3, scale=1 / 3200, options={"a": 4},
             adversary={"variant": "UqstFarProduct", "gamma": 0.9, "seed": 5}),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":{"gamma":0.9,"seed":5,"variant":"UqstFarProduct"},"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":3,"trials":40,"workers":1},"exact":null,"exact_float":null,"extras":{"accept_and_far":0.025},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.025,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        "uqst-wrong-count",
        dict(protocol="uqst", n=16, trials=4, seed=3, scale=1 / 3200, options={"a": 4},
             adversary={"variant": "UqstWrongCount", "count": 63}),
        '{"ci_half_width":0.8138118153593646,"config":{"adversary":{"count":63,"variant":"UqstWrongCount"},"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":3,"trials":4,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.0,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        "uqst-project-psi",
        dict(protocol="uqst", n=16, trials=40, seed=3, scale=1 / 3200,
             options={"a": 4, "referee_mode": "project_psi"}),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4,"referee_mode":"project_psi"},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":3,"trials":40,"workers":1},"exact":null,"exact_float":null,"extras":{"accept_and_far":0.0},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.925,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        "uqst-honest-200",
        dict(protocol="uqst", n=16, trials=200, seed=4, scale=1 / 3200, options={"a": 4}),
        '{"ci_half_width":0.11509037065006825,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":4,"trials":200,"workers":1},"exact":null,"exact_float":null,"extras":{"accept_and_far":0.0},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.86,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        "uqst-mixed",
        dict(protocol="uqst", n=16, trials=40, seed=3, scale=1 / 3200, options={"a": 4},
             adversary={"variant": "UqstMixed", "seed": 2,
                        "components": [{"weight": 0.5, "gamma": 0.0},
                                       {"weight": 0.5, "gamma": 0.9}]}),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":{"components":[{"gamma":0.0,"weight":0.5},{"gamma":0.9,"weight":0.5}],"seed":2,"variant":"UqstMixed"},"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":4},"protocol":"uqst","repetitions":1,"scale":0.0003125,"seed":3,"trials":40,"workers":1},"exact":null,"exact_float":null,"extras":{"accept_and_far":0.075},"instance":"haar-state 16","lengths":{"alice":176,"merlin":256},"p_hat":0.425,"protocol_type":"RQ","within_ci":null}',
    ),
    (
        "qrq-cross",
        dict(protocol="qrq-eq", n=4, trials=6, seed=3, scale=1 / 3200, instance="ne_pair",
             adversary={"variant": "QrqCrossFingerprint"}),
        '{"ci_half_width":0.6644745647595071,"config":{"adversary":{"variant":"QrqCrossFingerprint"},"confidence_beta":0.01,"instance":"ne_pair","mode":"monte_carlo","n":4,"options":{},"protocol":"qrq-eq","repetitions":1,"scale":0.0003125,"seed":3,"trials":6,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"0000 0011","lengths":{"alice":7,"bob":1200,"merlin":448},"p_hat":0.0,"protocol_type":"QRQ","within_ci":null}',
    ),
    (
        "qrq-cross-reps",
        dict(protocol="qrq-eq", n=4, trials=6, seed=3, scale=1 / 3200, instance="ne_pair",
             repetitions=3, adversary={"variant": "QrqCrossFingerprint"}),
        '{"ci_half_width":0.6644745647595071,"config":{"adversary":{"variant":"QrqCrossFingerprint"},"confidence_beta":0.01,"instance":"ne_pair","mode":"monte_carlo","n":4,"options":{},"protocol":"qrq-eq","repetitions":3,"scale":0.0003125,"seed":3,"trials":6,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"0000 0011","lengths":{"alice":7,"bob":1200,"merlin":448},"p_hat":0.0,"protocol_type":"QRQ","within_ci":null}',
    ),
    (
        "qrq-ne-reps",
        dict(protocol="qrq-eq", n=4, trials=8, seed=4, scale=1 / 3200, instance="ne_pair",
             repetitions=3),
        '{"ci_half_width":0.5754518532503412,"config":{"adversary":null,"confidence_beta":0.01,"instance":"ne_pair","mode":"monte_carlo","n":4,"options":{},"protocol":"qrq-eq","repetitions":3,"scale":0.0003125,"seed":4,"trials":8,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"0111 1100","lengths":{"alice":7,"bob":1200,"merlin":448},"p_hat":0.375,"protocol_type":"QRQ","within_ci":null}',
    ),
    (
        "rrq-junk",
        dict(protocol="rrq-eq", n=4, trials=10, seed=5, options={"m_copies": 16},
             adversary={"variant": "RrqOrthogonalJunk"}),
        '{"ci_half_width":0.5146997846583985,"config":{"adversary":{"variant":"RrqOrthogonalJunk"},"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":4,"options":{"m_copies":16},"protocol":"rrq-eq","repetitions":1,"scale":null,"seed":5,"trials":10,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"1111 1111","lengths":{"alice":768,"bob":768,"merlin":112},"p_hat":0.1,"protocol_type":"RRQ","within_ci":null}',
    ),
    (
        "rrq-n16",
        dict(protocol="rrq-eq", n=16, trials=10, seed=3, options={"a": 16, "m_copies": 32}),
        '{"ci_half_width":0.5146997846583985,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"monte_carlo","n":16,"options":{"a":16,"m_copies":32},"protocol":"rrq-eq","repetitions":1,"scale":null,"seed":3,"trials":10,"workers":1},"exact":null,"exact_float":null,"extras":{},"instance":"0000001101101111 0000001101101111","lengths":{"alice":768,"bob":768,"merlin":288},"p_hat":0.2,"protocol_type":"RRQ","within_ci":null}',
    ),
    (
        "disj-wrong-poly",
        dict(protocol="disj-rrr", n=16, trials=40, seed=3, mode="both", scale=0.0232,
             instance="intersect_pair", options={"alpha": 0.5},
             adversary={"variant": "DisjWrongPoly", "seed": 4}),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":{"seed":4,"variant":"DisjWrongPoly"},"confidence_beta":0.01,"instance":"intersect_pair","mode":"both","n":16,"options":{"alpha":0.5},"protocol":"disj-rrr","repetitions":1,"scale":0.0232,"seed":3,"trials":40,"workers":1},"exact":"1231365066163452278540155046680866294565577462325473386861873/2062884959698107109234389811200000000000000000000000000000000000","exact_float":0.0005969140743280499,"extras":{},"instance":"0000001101101111 0000111000011111","lengths":{"alice":540,"bob":540,"merlin":42},"p_hat":0.0,"protocol_type":"RRR","within_ci":true}',
    ),
    (
        "disj-honest-intersect",
        dict(protocol="disj-rrr", n=16, trials=20, seed=3, mode="both", scale=0.0232,
             instance="intersect_pair", options={"alpha": 0.5}),
        '{"ci_half_width":0.3639477080072093,"config":{"adversary":null,"confidence_beta":0.01,"instance":"intersect_pair","mode":"both","n":16,"options":{"alpha":0.5},"protocol":"disj-rrr","repetitions":1,"scale":0.0232,"seed":3,"trials":20,"workers":1},"exact":"0","exact_float":0.0,"extras":{},"instance":"0000001101101111 0000111000011111","lengths":{"alice":540,"bob":540,"merlin":42},"p_hat":0.0,"protocol_type":"RRR","within_ci":true}',
    ),
    (
        "disj-n64-enlarged",
        dict(protocol="disj-rrr", n=64, trials=20, seed=3, mode="both", scale=0.0232),
        '{"ci_half_width":0.3639477080072093,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"both","n":64,"options":{},"protocol":"disj-rrr","repetitions":1,"scale":0.0232,"seed":3,"trials":20,"workers":1},"exact":"441762869335506381427600043791283922379242488799275712788500454664104640305289869708048709512208327215088383736526517809479994750562939524267146675034986064488801060489311517108006894380963988923061031/443426488243037769948249630619149892803000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000","exact_float":0.9962482644775619,"extras":{},"instance":"0000001100000000000011100001110111000100110001010000000000111110 0000010001101111101000000110001000011010000110100101110010000001","lengths":{"alice":1845,"bob":1845,"merlin":279},"p_hat":1.0,"protocol_type":"RRR","within_ci":true}',
    ),
    (
        "disj-no-collision",
        dict(protocol="disj-rrr", n=16, trials=40, seed=3, mode="both", scale=1e-09,
             options={"alpha": 0.5}),
        '{"ci_half_width":0.25734989232919925,"config":{"adversary":null,"confidence_beta":0.01,"instance":null,"mode":"both","n":16,"options":{"alpha":0.5},"protocol":"disj-rrr","repetitions":1,"scale":1e-09,"seed":3,"trials":40,"workers":1},"exact":"1/60","exact_float":0.016666666666666666,"extras":{},"instance":"0000001100000000 0000010001101111","lengths":{"alice":30,"bob":30,"merlin":42},"p_hat":0.0,"protocol_type":"RRR","within_ci":true}',
    ),
    (
        "disj-wrong-poly-n64",
        dict(protocol="disj-rrr", n=64, trials=20, seed=5, mode="both", scale=0.0232,
             instance="intersect_pair", adversary={"variant": "DisjWrongPoly", "seed": 7}),
        '{"ci_half_width":0.3639477080072093,"config":{"adversary":{"seed":7,"variant":"DisjWrongPoly"},"confidence_beta":0.01,"instance":"intersect_pair","mode":"both","n":64,"options":{},"protocol":"disj-rrr","repetitions":1,"scale":0.0232,"seed":5,"trials":20,"workers":1},"exact":"10696530671091026103267300088164000615109648110622699309587849234636079844820602128329826801688879692694112735916947160126443286455292082569523088573300576425118108394867150269232450591218553243463401/133027946472911330984474889185744967840900000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000","exact_float":8.040814696984875e-05,"extras":{},"instance":"1111000101101111011111011110100000101111011001011010110011000000 1010101010101111000001010000100110111011010101011100101010001001","lengths":{"alice":1845,"bob":1845,"merlin":279},"p_hat":0.0,"protocol_type":"RRR","within_ci":true}',
    ),
]


def test_every_protocol_is_pinned():
    assert sorted(c["protocol"] for c, _ in GOLDEN) == sorted(PROTOCOL_IDS)


@pytest.mark.parametrize("fields,line", GOLDEN, ids=[c["protocol"] for c, _ in GOLDEN])
def test_record_is_byte_identical(fields, line):
    assert run(ExperimentConfig(workers=1, **fields)).json_line() == line


@pytest.mark.parametrize("fields,line", [c[1:] for c in REJECT_PATHS],
                         ids=[c[0] for c in REJECT_PATHS])
def test_reject_path_record_is_byte_identical(fields, line):
    assert run(ExperimentConfig(workers=1, **fields)).json_line() == line
