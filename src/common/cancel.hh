/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A CancelToken is a one-way, relaxed-atomic flag shared between a
 * controller (typically the runner's watchdog thread) and the engine
 * executing a run. The engine polls it at clean stop points — the
 * TOL dispatch loop, and the executor's budget check on a retiring
 * transfer onto a region entry (only when a token is set) — never on
 * the per-instruction hot path, so an un-cancelled run pays nothing
 * measurable (darco_bench `steady_464` measures this; see
 * docs/robustness.md).
 *
 * Cancellation is cooperative and lossy by design: the engine stops
 * at the next clean architectural point (a region-entry guest
 * boundary), finishes draining its timing pipelines, and reports the
 * partial run through the normal result path. Nothing is torn down
 * mid-instruction, so partial metrics are exact for the work that
 * did complete.
 */

#ifndef DARCO_COMMON_CANCEL_HH
#define DARCO_COMMON_CANCEL_HH

#include <atomic>

namespace darco::common {

class CancelToken
{
  public:
    /** Request cancellation (any thread; sticky until reset()). */
    void request() { flag.store(true, std::memory_order_relaxed); }

    /** Poll (engine side; relaxed — ordering carried by join/exit). */
    bool requested() const
    {
        return flag.load(std::memory_order_relaxed);
    }

    /** Re-arm for another run (single-owner, between runs only). */
    void reset() { flag.store(false, std::memory_order_relaxed); }

  private:
    std::atomic<bool> flag{false};
};

} // namespace darco::common

#endif // DARCO_COMMON_CANCEL_HH
