/**
 * @file
 * Per-job wall-clock watchdog for campaign execution.
 *
 * One monitor thread serves every worker: workers arm a deadline
 * before starting a job and disarm it when the job finishes; when a
 * deadline passes, the monitor requests the job's CancelToken and the
 * run stops cooperatively at the next clean stop point (see
 * common/cancel.hh for why this leaves exact partial metrics). The
 * hot simulation path is untouched — the only cross-thread traffic
 * is the token's relaxed flag, and arming/disarming costs one mutex
 * acquisition per *job*, not per instruction.
 *
 * Firing is one-way: the watchdog only ever sets the token. The
 * worker that owns the job decides what a fired deadline means
 * (runner::BatchRunner reports it as RunErrorClass::Timeout with the
 * partial metrics attached).
 */

#ifndef DARCO_RUNNER_WATCHDOG_HH
#define DARCO_RUNNER_WATCHDOG_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hh"

namespace darco::runner {

class Watchdog
{
  public:
    Watchdog();
    /** Joins the monitor thread; every entry must be disarmed. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Start watching @p token: request it @p timeout_ms from now
     * unless disarm() is called first. Returns a ticket for
     * disarm(). @p token must outlive the armed window.
     */
    uint64_t arm(common::CancelToken *token, uint64_t timeout_ms);

    /**
     * Stop watching the entry behind @p ticket. Safe to call after
     * the deadline fired (the entry is simply gone); returns whether
     * the deadline had already fired.
     */
    bool disarm(uint64_t ticket);

  private:
    void monitorLoop();

    struct Entry
    {
        uint64_t ticket;
        common::CancelToken *token;
        std::chrono::steady_clock::time_point deadline;
    };

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Entry> entries;
    uint64_t nextTicket = 1;
    bool shuttingDown = false;
    std::thread monitor;
};

/**
 * RAII arming for one job: arms on construction (when a watchdog and
 * a timeout are present), disarms on destruction, and remembers
 * whether the deadline fired before the job finished.
 */
class WatchdogArm
{
  public:
    WatchdogArm(Watchdog *dog, common::CancelToken *token,
                uint64_t timeout_ms)
        : dog(dog && timeout_ms ? dog : nullptr)
    {
        if (this->dog)
            ticket = this->dog->arm(token, timeout_ms);
    }

    ~WatchdogArm()
    {
        if (dog)
            firedFlag = dog->disarm(ticket);
        dog = nullptr;
    }

    /** Disarm now and report whether the deadline fired. */
    bool
    fired()
    {
        if (dog) {
            firedFlag = dog->disarm(ticket);
            dog = nullptr;
        }
        return firedFlag;
    }

  private:
    Watchdog *dog = nullptr;
    uint64_t ticket = 0;
    bool firedFlag = false;
};

} // namespace darco::runner

#endif // DARCO_RUNNER_WATCHDOG_HH
