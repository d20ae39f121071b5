/**
 * @file
 * Host-speed calibration. The benchmark shares its host with other
 * tenants, whose load slows every process on it by up to 1.7x for
 * seconds or minutes at a time. A fixed calibration kernel, timed
 * beside each pass, measures how fast the host runs at that moment;
 * the end-to-end times are scaled by it to a reference host speed.
 *
 * The kernel is the benchmark's own code, not the simulator's, and is
 * compiled at a fixed optimization level, so a change to the simulator
 * or to the repository's build flags moves the scaled times exactly
 * as it moves the raw ones.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

namespace perfbench
{

/** Seconds one calibration rep takes on the reference host. Scaled
 *  times are host seconds at the speed where a rep takes this long. */
constexpr double referenceRepS = 0.008;

/**
 * Time one rep of the calibration kernel: table-indexed state updates
 * with data-dependent branches over a 512 KiB table, then a binary
 * heap used as an event queue, the two kinds of work the simulator's
 * hot loop does. Returns host seconds.
 */
double calibrationRepS();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
