"""Table 3: unique prober IP addresses per autonomous system.

Paper shape: AS4837 (China Unicom backbone) and AS4134 (Chinanet) carry
the overwhelming majority, with a long tail of smaller Chinese ASes.
"""

from collections import Counter

from repro.analysis import banner, render_table
from repro.net import PAPER_AS_COUNTS, lookup_asn


def test_table3_prober_ases(benchmark, emit, ss_result):
    def build():
        per_as = Counter()
        for ip in set(ss_result.prober_ips):
            asn = lookup_asn(ip)
            per_as[asn] += 1
        return per_as

    per_as = benchmark(build)
    assert None not in per_as, "prober IP outside the known AS pools"
    # Ties rank by AS number: the set's iteration order, and so
    # Counter.most_common's order among ties, changes with PYTHONHASHSEED.
    ranking = sorted(per_as.items(), key=lambda item: (-item[1], item[0]))
    rows = [
        (f"AS{asn}", count, PAPER_AS_COUNTS.get(asn, "-"))
        for asn, count in ranking
    ]
    text = (
        banner("Table 3: unique prober IPs per AS")
        + "\n" + render_table(["AS", "measured unique IPs", "paper"], rows)
    )
    emit("table3_prober_ases", text)

    ranked = [asn for asn, _ in per_as.most_common()]
    # The two backbone ASes lead, in the paper's order.
    assert ranked[0] == 4837
    assert ranked[1] == 4134
    total = sum(per_as.values())
    assert (per_as[4837] + per_as[4134]) / total > 0.85
