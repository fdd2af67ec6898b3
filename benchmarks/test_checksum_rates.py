"""Section 3.4: checksum rates vs wire rates.

Paper claims: MD5 at ~350 MiB/s on one core is ~3× the 120 MiB/s
gigabit payload rate, so checksumming is not the bottleneck on 1 GbE;
on 10/40 GbE the checksum rate becomes the lower bound on migration
time; and the bulk announce for a 4 GiB VM is 16 MiB of MD5 checksums.
"""

from repro.core.checksum import MD5, get_algorithm, measure_throughput
from repro.experiments import rates
from repro.net.link import LAN_1GBE

from benchmarks.conftest import once

MIB = 2**20
GIB = 2**30


def test_checksum_rates(benchmark):
    rows = once(benchmark, rates.run)
    print("\n" + rates.format_table(rows))

    by_name = {row.algorithm: row for row in rows}

    # §3.4: the modelled MD5 rate is the paper's measured 350 MiB/s and
    # comfortably exceeds the gigabit payload rate.
    assert by_name["md5"].modelled_mib_s == 350
    assert MD5.throughput > 2.5 * LAN_1GBE.effective_bandwidth
    assert "lan-1gbe" not in by_name["md5"].bottleneck_on

    # On 10/40 GbE the MD5 rate becomes the bottleneck (motivating
    # cheaper checksums / hardware acceleration).
    assert "lan-10gbe" in by_name["md5"].bottleneck_on
    assert "lan-40gbe" in by_name["md5"].bottleneck_on

    # The cheap non-cryptographic option clears 10 GbE.
    assert "lan-10gbe" not in by_name["fnv1a"].bottleneck_on

    # The announce for a 4 GiB VM is exactly 16 MiB (§3.2).
    assert rates.announce_size_bytes(4 * GIB, MD5) == 16 * MIB


def test_measured_md5_rate_exceeds_gigabit(benchmark):
    """Empirical twin of the paper's measurement: hash 16 MiB of
    distinct pages on this machine and compare with the gigabit rate."""
    measured = once(benchmark, measure_throughput, MD5, 16 * MIB)
    print(f"\nmeasured MD5 throughput: {measured / MIB:.0f} MiB/s")
    # Any machine from the last decade hashes MD5 faster than 120 MiB/s.
    assert measured > LAN_1GBE.effective_bandwidth


def test_stronger_checksums_cost_more(benchmark):
    """§3.4: SHA-256 is the drop-in stronger (and slower) replacement."""
    sha = once(benchmark, measure_throughput, get_algorithm("sha256"), 8 * MIB)
    md5 = measure_throughput(MD5, total_bytes=8 * MIB)
    print(f"\nsha256 {sha / MIB:.0f} MiB/s vs md5 {md5 / MIB:.0f} MiB/s")
    assert sha > 0 and md5 > 0
