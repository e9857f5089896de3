"""Unit tests for point-to-point messaging and collective semantics."""

import numpy as np
import pytest

from repro.runtime import (
    CollectiveMismatchError,
    CommTimeoutError,
    FREE,
    InvalidRankError,
    RankFailedError,
    run_spmd,
)


def spmd(size, fn, **kw):
    kw.setdefault("machine", FREE)
    kw.setdefault("timeout", 10.0)
    return run_spmd(size, fn, **kw)


class TestPointToPoint:
    def test_ring_exchange(self):
        def prog(comm):
            comm.send(comm.rank * 10, (comm.rank + 1) % comm.size)
            return comm.recv((comm.rank - 1) % comm.size)

        r = spmd(4, prog)
        assert r.values == [30, 0, 10, 20]

    def test_fifo_ordering_per_source(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1)
                return None
            return [comm.recv(0) for _ in range(5)]

        r = spmd(2, prog)
        assert r.values[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            # Receive in the opposite order of sending.
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        r = spmd(2, prog)
        assert r.values[1] == ("a", "b")

    def test_sendrecv(self):
        def prog(comm):
            other = 1 - comm.rank
            return comm.sendrecv(comm.rank, other, other)

        r = spmd(2, prog)
        assert r.values == [1, 0]

    def test_numpy_payload_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10), 1)
                return None
            return comm.recv(0)

        r = spmd(2, prog)
        np.testing.assert_array_equal(r.values[1], np.arange(10))

    def test_invalid_destination(self):
        def prog(comm):
            comm.send(1, 99)

        with pytest.raises(RankFailedError) as ei:
            spmd(2, prog)
        assert isinstance(ei.value.causes[ei.value.rank], InvalidRankError)

    def test_recv_without_send_times_out(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(0)

        with pytest.raises(RankFailedError) as ei:
            spmd(2, prog, timeout=0.3)
        assert isinstance(ei.value.causes[1], CommTimeoutError)

    def test_self_send_recv(self):
        def prog(comm):
            comm.send("loop", comm.rank)
            return comm.recv(comm.rank)

        assert spmd(3, prog).values == ["loop"] * 3


class TestCollectives:
    def test_barrier_completes(self):
        def prog(comm):
            for _ in range(3):
                comm.barrier()
            return True

        assert all(spmd(5, prog).values)

    def test_bcast_from_each_root(self):
        def prog(comm):
            out = []
            for root in range(comm.size):
                value = f"from-{comm.rank}" if comm.rank == root else None
                out.append(comm.bcast(value, root=root))
            return out

        r = spmd(3, prog)
        for v in r.values:
            assert v == ["from-0", "from-1", "from-2"]

    def test_allreduce_sum_and_ops(self):
        def prog(comm):
            return (
                comm.allreduce(comm.rank + 1),
                comm.allreduce(comm.rank, op="max"),
                comm.allreduce(comm.rank, op="min"),
                comm.allreduce(comm.rank + 1, op="prod"),
            )

        r = spmd(4, prog)
        assert r.values == [(10, 3, 0, 24)] * 4

    def test_allreduce_numpy_elementwise(self):
        def prog(comm):
            return comm.allreduce(np.array([comm.rank, 1.0]))

        r = spmd(3, prog)
        for v in r.values:
            np.testing.assert_allclose(v, [3.0, 3.0])

    def test_allreduce_logical_ops(self):
        def prog(comm):
            return (
                comm.allreduce(comm.rank < 2, op="land"),
                comm.allreduce(comm.rank == 1, op="lor"),
            )

        assert spmd(3, prog).values == [(False, True)] * 3

    def test_allreduce_custom_callable(self):
        def prog(comm):
            return comm.allreduce((comm.rank,), op=lambda a, b: a + b)

        assert spmd(3, prog).values == [(0, 1, 2)] * 3

    def test_allreduce_unknown_op(self):
        def prog(comm):
            comm.allreduce(1, op="median")

        with pytest.raises(RankFailedError):
            spmd(2, prog)

    def test_reduce_only_root_gets_value(self):
        def prog(comm):
            return comm.reduce(comm.rank + 1, root=1)

        r = spmd(3, prog)
        assert r.values == [None, 6, None]

    def test_gather_scatter_roundtrip(self):
        def prog(comm):
            gathered = comm.gather(comm.rank ** 2, root=0)
            return comm.scatter(gathered, root=0)

        r = spmd(4, prog)
        assert r.values == [0, 1, 4, 9]

    def test_scatter_wrong_length_fails(self):
        def prog(comm):
            comm.scatter([1, 2, 3] if comm.rank == 0 else None, root=0)

        with pytest.raises(RankFailedError):
            spmd(2, prog)

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(chr(ord("a") + comm.rank))

        r = spmd(3, prog)
        assert r.values == [["a", "b", "c"]] * 3

    def test_alltoall_transpose(self):
        def prog(comm):
            return comm.alltoall(
                [comm.rank * 10 + d for d in range(comm.size)]
            )

        r = spmd(3, prog)
        assert r.values[0] == [0, 10, 20]
        assert r.values[2] == [2, 12, 22]

    def test_alltoall_wrong_length(self):
        def prog(comm):
            comm.alltoall([1])

        with pytest.raises(RankFailedError):
            spmd(3, prog)

    def test_neighbor_alltoall_sparse(self):
        def prog(comm):
            payload = {(comm.rank + 1) % comm.size: f"r{comm.rank}"}
            return comm.neighbor_alltoall(payload)

        r = spmd(4, prog)
        assert r.values[1] == {0: "r0"}
        assert r.values[0] == {3: "r3"}

    def test_neighbor_alltoall_empty(self):
        def prog(comm):
            return comm.neighbor_alltoall({})

        assert spmd(3, prog).values == [{}] * 3

    def test_scan_inclusive(self):
        def prog(comm):
            return comm.scan(comm.rank + 1)

        assert spmd(4, prog).values == [1, 3, 6, 10]

    def test_exscan_exclusive_with_identity(self):
        def prog(comm):
            return comm.exscan(comm.rank + 1)

        assert spmd(4, prog).values == [0, 1, 3, 6]

    def test_exscan_is_prefix_of_scan(self):
        def prog(comm):
            return comm.scan(2 * comm.rank), comm.exscan(2 * comm.rank)

        r = spmd(5, prog)
        for rank in range(1, 5):
            assert r.values[rank][1] == r.values[rank - 1][0]

    def test_collective_mismatch_detected(self):
        def prog(comm):
            # Divergence under test: the runtime must catch it.
            if comm.rank == 0:  # spmdlint: ignore[SPMD001]
                comm.barrier()
            else:
                comm.allreduce(1)

        with pytest.raises(RankFailedError) as ei:
            spmd(2, prog)
        assert any(
            isinstance(e, CollectiveMismatchError)
            for e in ei.value.causes.values()
        )

    def test_many_sequential_collectives(self):
        def prog(comm):
            total = 0
            for i in range(50):
                total += comm.allreduce(i)
            return total

        r = spmd(4, prog)
        assert r.values == [sum(4 * i for i in range(50))] * 4


class TestClockModel:
    def test_clocks_advance_with_traffic(self):
        def prog(comm):
            comm.allreduce(np.zeros(1000))
            return None

        from repro.runtime import CORI_HASWELL

        r = run_spmd(4, prog, machine=CORI_HASWELL, timeout=10.0)
        assert r.elapsed > 0.0

    def test_collective_synchronizes_clocks(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            if comm.rank == 0:
                comm.charge_compute(1e7)  # rank 0 is the straggler
            comm.barrier()
            return comm.clock

        r = run_spmd(3, prog, machine=CORI_HASWELL, timeout=10.0)
        assert max(r.values) - min(r.values) < 1e-12

    def test_compute_charge_categories(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            comm.charge_compute(1e6)
            comm.charge_io(1e6)
            return None

        r = run_spmd(1, prog, machine=CORI_HASWELL)
        cats = r.trace.seconds_by_category()
        assert cats["compute"] > 0
        assert cats["io"] > 0


class TestExchangeRoundtrip:
    def test_request_reply_delivery(self):
        """result[j] is rank j's reply to this rank's outgoing[j]."""

        def prog(comm):
            outgoing = [
                (comm.rank, dest) for dest in range(comm.size)
            ]

            def serve(incoming):
                # incoming[s] is rank s's request to me: (s, my_rank).
                for s, (src, dest) in enumerate(incoming):
                    assert src == s and dest == comm.rank
                return [(comm.rank, src) for src, _ in incoming]

            return comm.exchange_roundtrip(outgoing, serve)

        r = spmd(4, prog)
        for rank, replies in enumerate(r.values):
            assert replies == [(j, rank) for j in range(4)]

    def test_serve_runs_in_rank_order_and_mutates_by_reference(self):
        """Serve callbacks observe a global rank-ordered apply
        sequence."""

        def prog(comm):
            state = {"log": []}

            def serve(incoming):
                state["log"].append(list(incoming))
                return [sum(incoming)] * comm.size

            replies = comm.exchange_roundtrip(
                [comm.rank + 1] * comm.size, serve
            )
            return replies, state["log"]

        r = spmd(3, prog)
        for replies, log in r.values:
            # Every owner saw 1+2+3 and replied with it.
            assert replies == [6, 6, 6]
            assert log == [[1, 2, 3]]

    def test_single_rank(self):
        def prog(comm):
            return comm.exchange_roundtrip(
                [np.arange(3)], lambda inc: [inc[0] * 2]
            )[0].tolist()

        assert spmd(1, prog).values == [[0, 2, 4]]

    def test_wrong_outgoing_length(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.exchange_roundtrip([1], lambda inc: inc)
            comm.barrier()
            return True

        assert all(spmd(3, prog).values)

    def test_wrong_reply_length(self):
        def prog(comm):
            with pytest.raises(ValueError):
                comm.exchange_roundtrip(
                    [0] * comm.size, lambda inc: [0]
                )
            return True

        with pytest.raises(RankFailedError):
            spmd(2, prog)

    def test_costed_as_two_legs(self):
        from repro.runtime import CORI_HASWELL

        def prog(comm):
            payload = np.zeros(1000, dtype=np.int64)
            comm.exchange_roundtrip(
                [payload] * comm.size,
                lambda inc: list(inc),
                category="community_comm",
            )
            return comm.clock

        r = run_spmd(4, prog, machine=CORI_HASWELL, timeout=10.0)
        assert all(v > 0 for v in r.values)
        counts = r.trace.collective_counts()
        assert counts.get("exchange_roundtrip") == 4
        assert r.trace.seconds_by_category()["community_comm"] > 0


# ----------------------------------------------------------------------
# Byte/message/clock accounting of the two personalized exchanges
# ----------------------------------------------------------------------
#: A 24-byte struct record, so struct-array payloads are sized too.
_RECORD_DTYPE = np.dtype([("id", "<i8"), ("tot", "<f8"), ("size", "<i8")])


def _ragged(s, d, salt=0):
    """Deterministic ragged payload for the message s -> d."""
    if s == d:
        # A fat self-message: delivered, never priced or counted.
        return np.arange(1000, dtype=np.int64)
    k = (3 * s + 5 * d + salt) % 5
    if k == 0:
        return None
    if k == 1:
        return np.empty(0, dtype=_RECORD_DTYPE)
    if k == 2:
        return np.zeros(s + 2 * d + 1, dtype=_RECORD_DTYPE)
    if k == 3:
        return [[s, d], [float(salt)] * (d + 1), (s, "tag")]
    return np.arange(7 * s + d, dtype=np.int64)


def _leg_expectation(machine, p, payload):
    """Per-rank (sent sizes, received sizes, leg cost) of one exchange
    leg, from ``message_bytes`` and the machine model alone."""
    from repro.runtime.payload import message_bytes

    legs = []
    for r in range(p):
        sent = [message_bytes(payload(r, d)) for d in range(p) if d != r]
        recv = [message_bytes(payload(s, r)) for s in range(p) if s != r]
        cost = machine.alltoallv_cost(sum(sent), sum(recv), p, rank=r)
        legs.append((sent, recv, cost))
    return legs


class TestExchangeAccounting:
    """``alltoall`` / ``exchange_roundtrip`` size each wire message once;
    the counters and clocks they produce are pinned here against values
    computed without going through the communicator."""

    @staticmethod
    def _stagger(comm):
        # Unequal entry clocks: the collective must start at the latest.
        comm.charge_compute(1e5 * (comm.rank + 1))
        return comm.clock

    @staticmethod
    def _advance(start, target):
        # Exactly how ``Communicator._collective`` moves a clock.
        return start + max(target - start, 0.0)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_alltoall_counters_and_clocks(self, p):
        from repro.runtime import CORI_HASWELL as M

        def prog(comm):
            start = self._stagger(comm)
            got = comm.alltoall([_ragged(comm.rank, d) for d in range(p)])
            assert [type(v) for v in got] == [
                type(_ragged(s, comm.rank)) for s in range(p)
            ]
            return start, comm.clock

        r = run_spmd(p, prog, machine=M, timeout=10.0)
        legs = _leg_expectation(M, p, _ragged)
        t0 = max(start for start, _ in r.values)
        for rank, ((start, clock), (sent, recv, cost)) in enumerate(
            zip(r.values, legs)
        ):
            t = r.trace.ranks[rank]
            assert (t.messages_sent, t.bytes_sent) == (p - 1, sum(sent))
            assert (t.messages_received, t.bytes_received) == (p - 1, sum(recv))
            assert clock == self._advance(start, t0 + cost)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_exchange_roundtrip_counters_and_clocks(self, p):
        from repro.runtime import CORI_HASWELL as M

        def reply(s, d):  # server s's reply to client d
            return _ragged(s, d, salt=2)

        def prog(comm):
            start = self._stagger(comm)
            comm.exchange_roundtrip(
                [_ragged(comm.rank, d) for d in range(p)],
                lambda incoming: [reply(comm.rank, d) for d in range(p)],
            )
            return start, comm.clock

        r = run_spmd(p, prog, machine=M, timeout=10.0)
        req = _leg_expectation(M, p, _ragged)
        rep = _leg_expectation(M, p, reply)
        t_mid = max(start for start, _ in r.values) + max(c for _, _, c in req)
        for rank, (start, clock) in enumerate(r.values):
            t = r.trace.ranks[rank]
            sent = req[rank][0] + rep[rank][0]
            recv = req[rank][1] + rep[rank][1]
            assert (t.messages_sent, t.bytes_sent) == (2 * (p - 1), sum(sent))
            assert (t.messages_received, t.bytes_received) == (
                2 * (p - 1), sum(recv),
            )
            assert clock == self._advance(start, t_mid + rep[rank][2])

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_every_wire_message_sized_exactly_once(self, p, monkeypatch):
        import threading

        from repro.runtime import comm as comm_mod
        from repro.runtime.payload import message_bytes

        calls = []
        lock = threading.Lock()

        def counting(obj):
            with lock:
                calls.append(1)
            return message_bytes(obj)

        monkeypatch.setattr(comm_mod, "message_bytes", counting)

        def prog(comm):
            comm.alltoall([_ragged(comm.rank, d) for d in range(p)])
            comm.barrier()
            after_alltoall = len(calls)
            comm.barrier()
            comm.exchange_roundtrip(
                [_ragged(comm.rank, d) for d in range(p)],
                lambda incoming: [_ragged(comm.rank, d, 1) for d in range(p)],
            )
            return after_alltoall

        r = spmd(p, prog)
        # p(p-1) wire messages per leg (the p self-messages are never
        # sized); before the single sizing pass an 8-rank alltoall made
        # 224 calls: 112 in finalize plus 14 on each rank for its trace.
        wire = p * (p - 1)
        assert r.values == [wire] * p
        assert len(calls) == 3 * wire
