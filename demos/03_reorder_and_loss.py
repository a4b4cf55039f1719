"""Zero-copy under network misbehavior.

Runs the simulator across increasing reorder probabilities and a lossy
pipe, printing how the receive path degrades: an out-of-order packet
still opens straight at its offset in stream storage, in the hole past
the tail, and is not copied. Only a packet that fills a gap is copied
once, because it opens in the datagram rather than over the data
received past it; the copied byte count is those bytes. The ordered
ratio falls with the reorder rate, the copied bytes far less. Loss adds
retransmissions but the transfer still completes and verifies.

Run: python3 demos/03_reorder_and_loss.py
"""

from revquic.harness import PipeConfig, run_transfer
from revquic.mode import WireMode

SIZE = 4 << 20


def main() -> None:
    print(f"reverso, {SIZE:,} bytes, seeded simulator pipe\n")
    print(f"{'pipe':24s} {'ordered':>8s} {'copied B':>10s} {'in-place B':>11s} {'rtx':>4s}")
    for p in (0.0, 0.005, 0.02, 0.1):
        r = run_transfer(WireMode.REVERSO, SIZE, pipe=PipeConfig(seed=1, reorder_prob=p))
        print(f"reorder_prob={p:<11g} {r.ordered_ratio:8.4f} {r.payload_bytes_copied:>10,}"
              f" {r.payload_bytes_zero_copy:>11,} {r.retransmissions:>4d}")
    for loss in (0.02, 0.05):
        r = run_transfer(WireMode.REVERSO, SIZE, pipe=PipeConfig(seed=1, loss_prob=loss))
        print(f"loss_prob={loss:<14g} {r.ordered_ratio:8.4f} {r.payload_bytes_copied:>10,}"
              f" {r.payload_bytes_zero_copy:>11,} {r.retransmissions:>4d}")
    print("\ncopied bytes == total bytes - in-place bytes on reorder-only pipes:")
    print("every byte arrives exactly once, in order or not.")


if __name__ == "__main__":
    main()
