/**
 * @file
 * Test-only std::function adapters for the event queue and clock
 * domains. Production code uses typed Event / ClockDomain::Ticker
 * subclasses; tests use these to write short inline callbacks.
 */

#ifndef TESTS_CALLBACK_ADAPTERS_HH
#define TESTS_CALLBACK_ADAPTERS_HH

#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

namespace gals
{

/** One-shot event wrapping a std::function callback. */
class CallbackEvent : public Event
{
  public:
    explicit CallbackEvent(std::function<void()> fn,
                           std::string name = "callback",
                           int priority = defaultPri)
        : Event(std::move(name), priority), fn_(std::move(fn))
    {
    }

    void process() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/** Ticker wrapping a std::function callback. */
class FunctionTicker final : public ClockDomain::Ticker
{
  public:
    explicit FunctionTicker(std::function<void()> fn) : fn_(std::move(fn))
    {
    }

    void tick() override { fn_(); }

  private:
    std::function<void()> fn_;
};

/**
 * Register @p fn on @p domain at @p priority through a FunctionTicker.
 * The adapter lives until the test binary exits (a domain never owns
 * its tickers), so the returned handle stays valid for removeTicker()
 * and a destroyed domain simply orphans it.
 */
inline ClockDomain::Ticker *
addTicker(ClockDomain &domain, std::function<void()> fn, int priority = 50)
{
    static std::deque<FunctionTicker> adapters;
    adapters.emplace_back(std::move(fn));
    return domain.addTicker(adapters.back(), priority);
}

} // namespace gals

#endif // TESTS_CALLBACK_ADAPTERS_HH
