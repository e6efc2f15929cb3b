"""Golden digests of simulated traces: the simulator's output is pinned.

Every registered CCA runs over four environments (a baseline path, a
shallow 0.25-BDP buffer, a deep 2-BDP buffer, and a long-RTT path where
every CCA hits retransmission timeouts), plus one noisy collection and
one multi-flow competition.  Each trace is reduced to a sha256 over
every field of every ACK and loss record.  Any change to the event
loop that alters event order, a timer firing or a float operation shows
up here as a changed digest.

To re-pin after a deliberate change in simulated dynamics, run this
module as a script and paste its output over the pinned tables::

    PYTHONPATH=src python tests/netsim/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cca.registry import cca_names, make_cca
from repro.netsim import Environment, Simulator, simulate, simulate_competition
from repro.trace.collect import CollectionConfig, collect_traces
from repro.trace.model import Trace
from repro.trace.noise import NoiseModel

#: Simulated seconds per single-flow trace; short, to keep tier-1 fast.
DURATION = 4.0

ENVIRONMENTS: dict[str, Environment] = {
    "base": Environment(bandwidth_mbps=10.0, rtt_ms=50.0),
    "shallow": Environment(bandwidth_mbps=5.0, rtt_ms=20.0, queue_bdp=0.25),
    "deep": Environment(bandwidth_mbps=15.0, rtt_ms=30.0, queue_bdp=2.0),
    "long_rtt": Environment(bandwidth_mbps=2.0, rtt_ms=200.0, queue_bdp=0.25),
}

NOISY_CONFIG = CollectionConfig(
    duration=DURATION,
    environments=(ENVIRONMENTS["base"], ENVIRONMENTS["long_rtt"]),
    noise=NoiseModel(jitter_std=0.002, dropout=0.02, cwnd_error=0.02, seed=7),
    max_acks_per_trace=2_000,
)


def trace_digest(trace: Trace) -> str:
    """sha256 over the trace header and every ACK and loss record field."""
    digest = hashlib.sha256()
    header = (
        trace.cca_name,
        trace.environment_label,
        trace.mss,
        sorted(trace.meta.items()),
    )
    digest.update(repr(header).encode())
    for ack in trace.acks:
        digest.update(
            repr(
                (
                    ack.time,
                    ack.ack_seq,
                    ack.acked_bytes,
                    ack.rtt_sample,
                    ack.cwnd_bytes,
                    ack.inflight_bytes,
                    ack.dupack,
                )
            ).encode()
        )
    for loss in trace.losses:
        digest.update(repr((loss.time, loss.kind)).encode())
    return digest.hexdigest()


def environment_digests(env: Environment) -> dict[str, str]:
    return {
        name: trace_digest(simulate(make_cca(name), env, duration=DURATION))
        for name in cca_names()
    }


def noisy_digests() -> list[str]:
    traces = collect_traces("cubic", NOISY_CONFIG)
    return [trace_digest(trace) for trace in traces]


def competition_digests() -> list[str]:
    traces = simulate_competition(
        [make_cca("reno"), make_cca("bbr"), make_cca("vegas")],
        ENVIRONMENTS["base"],
        duration=DURATION,
        start_times=[0.0, 0.5, 1.0],
    )
    return [trace_digest(trace) for trace in traces]


PINNED_ENVIRONMENTS: dict[str, dict[str, str]] = {
    "base": {
        "bbr": "4d94f6b19b104f86cfcb966dbf5242be0be6509cd6521aaa8bd18945796e1207",
        "bic": "26e8cd209173984fc52643080055bfb1ac2c52538ab2ff7e57e13f12209a7d85",
        "cdg": "cd017337039342c3226812095f0f5057d267a59cdc5c189963b03cbe54fb460a",
        "cubic": "9c1cb75ada82b5d0e343f8270b03daf9417c9e0fbfc1af0f5d209e47073269c0",
        "highspeed": "2b42c57b9384921cdaf4f14d73aad2e6ea9ed601c2552c6e15a0b328dcb55047",
        "htcp": "8ad33f32bbc76977a52b3ed46b0b36ddaa83d8772320861db4d1d1a28f1c20b3",
        "hybla": "b6879155d796e212a2cab351a87809c5a1938ccb43d06c9970ff20f68f77f7b9",
        "illinois": "ee13da4d6fcfe8cc32a217c88be9e1b86e1617017e1c30d00be163758d7be920",
        "lp": "c2beb7e430c5694669a38406a5f86a4803458a8679500988c88f1b6bbf5038b5",
        "nv": "bdda4b70a0ba58039add4777072dfb76838a9e66e35b47145bf705045c372692",
        "reno": "3f405e2001784f36043a2dad38268586eb2abd1d6948467696c4b94c51088dbd",
        "scalable": "0a8a15b87766f8be8bb3e7c30284de5139988862d34c8fd8e86d2cbfecc1def9",
        "student1": "bbaa9787d622812fc6cbbcd5299d07608b1f57277b9c89d29e65a0fc1353b76d",
        "student2": "21b2ea708f0a12b46f37805afebb687b4358ecb559f06dc9852117daadd663b5",
        "student3": "f5437fca0402d853406d9626edda6d429190d3947795c5106569f9964a00fa4f",
        "student4": "431b535130c23e6b5cd96a0e06d6e85fd3cf2fcf64b719bd10c7f3bc04ff0606",
        "student5": "af1c639af007ce1206d2db927e8cb60eba2f50d44333a260cd388df61a5d8b6e",
        "student6": "22db5428ad492d27c6f6db5ab628fec1dda2a9cd66db23ee06d1bac66924a6cc",
        "student7": "567aa52acd735d62284e6beb853401dc43cd29089d26b0ce997fcc7811548e19",
        "vegas": "94606d8c8b5d8970c11c587fef38092b337ba68bb3c3071bbe9f838ca9e59d33",
        "veno": "584ef3d39470838c6ea7414e0262c70a2893d2cac265a71adc4ff534e84e0cda",
        "westwood": "401422b1fbe73bdb07cdab55037e52460ff5643887882a7a849bef6918338ac9",
        "yeah": "338a40c4cfe440bc966788b9b82b79a8f4dc592a6f7a8d268c442f455689783a",
    },
    "shallow": {
        "bbr": "000c6aa66c9f3f0fe0b1fe41a9eac6a6f4c723d60fe10a0e7caeb5fac885ba11",
        "bic": "03aea2bbfffade84b15992f165190a965b1b6be1a03c9b439eb272b8ef77cbaa",
        "cdg": "a41006735f9db0aca333b737f41639a1d697763cfaa5dd4571b5695e5e07f0a8",
        "cubic": "ed8aebe76b931a4dc747a833b5c35c32fc5c0900ddeb2f6b1e9e3b30f9b944b2",
        "highspeed": "d08dfbae28346283bd770f2d2c5e5ef15505d77193862ff2bb6d90106c6bfde5",
        "htcp": "4416416d53cd7c091a6acbee7429e7ae975f2d1f26729ede531334448b54161f",
        "hybla": "e9bcded7eeea95c564797e29d7a1aeaa62932ec0ad29bbb1c34f532acccaa068",
        "illinois": "89a549a15bb126d235ba5359a7b92f49ef10a5931ff2879fbf4d5c9f031cf332",
        "lp": "3bd72fe42e518ccfe00a383d74e7a7c123d9846a57f627dae21cae305761c97a",
        "nv": "11bac264c7886395949bfedadbf2b0dd85158f6406b21dc27b12b2e7bea90f95",
        "reno": "07b18066412d2051a1d8c25a7d33cee5832bf6cad48150f3d4bce82c41cc1003",
        "scalable": "f8ffba44598c0ac8e72d6157735e0d8ddc04e9d167920a6b0be64ed3f4753334",
        "student1": "a640aac71c6b4b02e49f31dfa2e53404f2fa3fdcd9f5f84a29621f6c43cf8bab",
        "student2": "66f83984e7f8ca8d58e3ce5727048798135844612e5d6be00a814d7614ceceb9",
        "student3": "65c6f76a2c53878fc0fb42cd99f5cdce30ddf166cefea05afc02f104699bfa1b",
        "student4": "ea7c72dade36e047c1662e5eaa33e446d0bc38a4125fed492c1ff364ba53ead0",
        "student5": "479b7e939c886cdfdf4d3124fdc2cf341f4eba3cd2a18c00734420171c390f3d",
        "student6": "61dab22d37eb35b1b29560c23072c3f019cf981d6774422acaf3a14f0b4aae7f",
        "student7": "1c002e9079304495a085020257bae0b94c1bdbb7caecfdf2e7dc74e406f6a5b4",
        "vegas": "b09c5a3525ae1b3e97a91341fffb60e11f9e88bf231cbcde4ce4d24fd5c61e4c",
        "veno": "4cc51f103d0e4022ac6b819873328eec3e4d91d786a8ed25c8b68a1f43bfb514",
        "westwood": "c27f03cbf6df53a1b6f0eada51027127c01b7e94a53e1185212a5df46698593d",
        "yeah": "b6460507f1301fbfbca9abfbf91175cc88f08876f705caebddfa7af4303a793a",
    },
    "deep": {
        "bbr": "20f15cd4ed9cb07b030965c15e726d4d778137ace76efdb3fae75e5888bee6ca",
        "bic": "3b69a2f9e9043e253b0df8662a9b0e3b017bb63dae23b4a17b5a8006d525ccca",
        "cdg": "c344e02dca265bc619ba8a457a55c2aa6a1e4f112781bb56c6a7fd9b87036597",
        "cubic": "ce1a89fba1429974ff4108b1ecdb82a577de2472a6137aca20b56c130c7bf05c",
        "highspeed": "88f78cae90964931ffab020ffeefb7b002a9fa91940c4aef0ee238d93537ce79",
        "htcp": "a11fb503c8cd770eed6ef4becfaa6deac946f4df87c34c56963d349bed80e86c",
        "hybla": "da93afafc1ba82382206827926b4c13cba989dc98c77de7f13998b8ca688e376",
        "illinois": "44250cd37ea62b80ae3c9060ff43a526819c842ce624633ee91b30427c1afb4c",
        "lp": "5b3d69732a96ae1e742aecc9a563cc2fa3a6a0f6d7c2d85fb9908b9d6889b4d5",
        "nv": "35e909d499b2ba5ee6941e3631bebe655fbdfc0bbef5e2ed7a57cdd7dcd7689b",
        "reno": "f792c511f132750cbea5378462cdf4b46a4ecf9f089cbf570466f23abfbe5b00",
        "scalable": "17b31cc196ba51bcb4824e9ac9ff44c130139c5303baaae4a734ce2e272f6c60",
        "student1": "372c3b9fc453204cc3e092ee6a14870f510943d9d882bac0ca2af8e2b5fb5ad4",
        "student2": "339aba27b48754bbc41b85a95b3f290fc7c5bd694da351245608600bba961bc5",
        "student3": "973b993b6683b77b39ad276113fd026a396a6aa8eae66d92c323504eeacbca27",
        "student4": "2d0dd7c94441a3aa3050cb970f9f2586624ba6fa387f6848d611553862b13584",
        "student5": "5e11c8d2228d8e1104debce1b43ae6c4167dcaa647b3b440d111097f2d5aef60",
        "student6": "1c1a13b6e9b0b71263290276f343974b44075ff47d58067bef4072aaadd8fe80",
        "student7": "61583672bfd41e6ed511e457ad1598f88808cbfae493143a837dfc9ec585e2b1",
        "vegas": "31a35bc2d97c28cd6c016eb5ab0749d88e9c6d923975de565a220c48a5984878",
        "veno": "e2b0b0685931a0e11dd82a4d09c94ba91829b61146ddf5e78a8f42eb72fb5b5a",
        "westwood": "29d99379f1a4ebc86a63a48102e78ad015f0398e4d839acd607cb10ddadef54a",
        "yeah": "002d20f4d747e3d50b64c4032cb0fb233efad36e90c57b5abbc7b882d3049952",
    },
    "long_rtt": {
        "bbr": "4a75d8116b852f398515417f0389f3f6dd2ced2be463cb9fce4a37dd6b511649",
        "bic": "aa7399f5e6381c2b67fae8824e580b9c90da1923acb3c4715f1dfe76102aa387",
        "cdg": "149ef6dc863be6cd54c3f8769b312a70f53fc8a4223482bd59140bdc88d016f7",
        "cubic": "8f6a611d228f846d96ac91ae533cfaf9d85199fad6e7d6023c7064abe717bafc",
        "highspeed": "874350635f6600b9585782536040e07ae26e2a6b9616463e1bd055492f9cc087",
        "htcp": "18d3f157c166403f903c63396cce692d5692217773193d991437d04c98f1d9ab",
        "hybla": "7ac8b5ebad50c6087dd325a48be2d5efac2f4ba8b5ddec354cf955531e4e3d0a",
        "illinois": "dede9e4464fe81782c355b0f4c43d9a4a4f1a94a91f43cb0e23364f37acb3041",
        "lp": "d596da376f829c744cd6ceb599b322ee9b3348887858243e417e5dc7920066cf",
        "nv": "918df9f896adf5343b0d88715f2ba5a35be17cc0192a9e999a8044d15aef0877",
        "reno": "9581b140647d52a26d7c103206029e0962a08a5c66280785290ffc7e5cd3e9f5",
        "scalable": "7ca28df0d07ffd4150d0af3c8c7255ad300cb24d1e727e1faf4837fc9e34df8c",
        "student1": "c2bc2edfc27415df846f8bab518e113aeee22461c57284f4a021f6e5d0ab310a",
        "student2": "987ab2b44b1d966bbab8b5c452c6823f3a7adbcfdbdc312f735373192dbc8943",
        "student3": "f69aaf6baf617856ae25c92549231167b6425474033801c7d73730754e1c093f",
        "student4": "8bf2bb6153f6d7b1a15f6b7917a499bea89288ab127f7deebfa537801fb984d4",
        "student5": "993c1ce5c55f8ef0683674dbc834e1a03788fcfdcb8ba6933af2933b64c72d6b",
        "student6": "e4ab9a40b38265cbd404eb79b7f8992b51d8ffe76c1e254018efcddc9ae3fb24",
        "student7": "a409b36ca6ec9c2be72939bb98ff716902ae7024a558fb57cc40dd140e51dbf1",
        "vegas": "386777612166ac58ec50f5e3760ab674af293fc0daa7271faee942308064d0f3",
        "veno": "633d8048ddd52c9a0d0abe686459093651afb9ae71615246456099781928c042",
        "westwood": "738f168332991b91456ff3485657cd87f8551aee8a11eabcd81bdb27cdcb1328",
        "yeah": "8b46af704373b41b1444363faa74dd01b587574b88dba3b15a7d6b292c92228d",
    },
}
PINNED_NOISY: list[str] = [
    "a5a43f8b05bee7f4a143bdd6169300501aebf8ca662ed97f22736ddf716441c8",
    "e0538a771b658e9edce61cd3718c26205afd9d15f7c3e93fb8c8b880a2d3317e",
]
PINNED_COMPETITION: list[str] = [
    "14e1f64c2ca2b571069b8b6b8e635ed086a7eec61b0a1329fd42061b1f46f5ad",
    "85284a67ed050f1f1906c858e801275f3bf6017f9002cc08de80eda6bb05b6e7",
    "2642d71d51e54b8c91fdc5a30b1679287b52d26214ba0a40bdfdc39f6ba28eff",
]


@pytest.mark.parametrize("label", sorted(ENVIRONMENTS))
def test_single_flow_digests_pinned(label):
    got = environment_digests(ENVIRONMENTS[label])
    pinned = PINNED_ENVIRONMENTS[label]
    changed = sorted(name for name in got if got[name] != pinned.get(name))
    assert not changed, f"{label}: traces changed for {changed}"
    assert set(got) == set(pinned)


def test_noisy_collection_digests_pinned():
    assert noisy_digests() == PINNED_NOISY


def test_competition_digests_pinned():
    assert competition_digests() == PINNED_COMPETITION


def test_long_rtt_environment_exercises_the_timer():
    """The long-RTT case only guards the RTO path if timeouts happen."""
    env = ENVIRONMENTS["long_rtt"]
    for name in ("reno", "cubic", "bbr"):
        trace = simulate(make_cca(name), env, duration=DURATION)
        assert any(loss.kind == "timeout" for loss in trace.losses), name


class EagerTimerSimulator(Simulator):
    """Test oracle: the textbook timer, one heap entry per arm.

    Each arm pushes ``(deadline, seq)`` with its own ``snd_una``
    snapshot; a popped entry acts only if its deadline still equals the
    latest one.  The production timer keeps one live heap entry instead
    and must fire exactly where this one does.
    """

    def _arm_timer(self) -> None:
        deadline = self.now + self._rto()
        self._timer_deadline = deadline
        timer = (deadline, self.snd_una)
        heapq.heappush(
            self._events,
            (deadline, next(self._order), self._eager_popped, timer),
        )

    def _eager_popped(self, timer: tuple[float, int]) -> None:
        deadline, snapshot = timer
        if deadline == self._timer_deadline:
            self._timer_fired(snapshot)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(cca_names()),
    bandwidth=st.floats(min_value=0.5, max_value=20.0),
    rtt=st.floats(min_value=5.0, max_value=400.0),
    queue=st.floats(min_value=0.1, max_value=4.0),
)
def test_lazy_timer_matches_eager_oracle(name, bandwidth, rtt, queue):
    env = Environment(bandwidth_mbps=bandwidth, rtt_ms=rtt, queue_bdp=queue)
    lazy = Simulator(make_cca(name), env, duration=3.0).run()
    eager = EagerTimerSimulator(make_cca(name), env, duration=3.0).run()
    assert trace_digest(lazy) == trace_digest(eager)


def _scripted_arms(sim_class) -> list[tuple[float, str]]:
    """Arm at three instants so the last arm lands on the float deadline
    (0.5) of the first, with an earlier deadline (0.4) in between.  The
    first arm's snapshot (0) no longer matches ``snd_una``, so at 0.5 the
    timer must re-arm quietly; only the later expiry is a timeout."""
    sim = sim_class(make_cca("reno"), ENVIRONMENTS["base"], duration=1.0)
    sim.snd_nxt = 3000
    sim._rttvar = 0.0
    arms = ((0.0, 0.5, 0), (0.1, 0.3, 1500), (0.25, 0.25, 1500))
    for now, srtt, una in arms:
        sim.now, sim._srtt, sim.snd_una = now, srtt, una
        sim._arm_timer()
    assert sim._timer_deadline == 0.5
    while sim._events:
        time, _, handler, arg = heapq.heappop(sim._events)
        if time > sim.duration:
            break
        sim.now = time
        handler(arg)
    return [(loss.time, loss.kind) for loss in sim.trace.losses]


def test_timer_deadline_shared_with_older_arm_follows_oracle():
    losses = _scripted_arms(Simulator)
    assert losses == _scripted_arms(EagerTimerSimulator)
    assert losses and losses[0][0] > 0.5


def render_pins() -> str:
    """The pinned tables, recomputed, as Python source."""
    lines = ["PINNED_ENVIRONMENTS: dict[str, dict[str, str]] = {"]
    for label, env in ENVIRONMENTS.items():
        lines.append(f'    "{label}": {{')
        for name, value in environment_digests(env).items():
            lines.append(f'        "{name}": "{value}",')
        lines.append("    },")
    lines.append("}")
    for title, values in (
        ("PINNED_NOISY", noisy_digests()),
        ("PINNED_COMPETITION", competition_digests()),
    ):
        lines.append(f"{title}: list[str] = [")
        lines.extend(f'    "{value}",' for value in values)
        lines.append("]")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    print(render_pins())
