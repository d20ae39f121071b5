/**
 * @file
 * Multi-clock playground: the paper's Figure 4 example, built on the
 * public event-driven engine API.
 *
 * Three clock domains with periods 2 ns, 3 ns and 2.5 ns (phases 0.5,
 * 1.0 and 0.0 ns) tick side by side; domains 1 and 3 exchange tokens
 * through an asynchronous FIFO so you can watch the synchronizer
 * latency and the full/empty flag conservatism in action.
 *
 * Usage: multiclock_playground [ns-to-simulate]
 */

#include <cstdio>
#include <cstdlib>

#include "core/channel.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"

using namespace gals;

namespace
{

/** Prints every edge of its clock domain; subclasses add FIFO work. */
class EdgeLogger : public ClockDomain::Ticker
{
  public:
    explicit EdgeLogger(ClockDomain &clk) : clk_(clk)
    {
        clk.addTicker(*this);
    }

    void
    tick() override
    {
        std::printf("%7.1f ns  %s edge (cycle %llu)",
                    clk_.eventQueue().now() / 1000.0, clk_.name().c_str(),
                    static_cast<unsigned long long>(clk_.cycle()));
        onEdge();
        std::printf("\n");
    }

  protected:
    virtual void onEdge() {}

    ClockDomain &clk_;
};

/** Domain 1: pushes a fresh token whenever the full flag is clear. */
class Producer final : public EdgeLogger
{
  public:
    Producer(ClockDomain &clk, Channel<int> &fifo)
        : EdgeLogger(clk), fifo_(fifo)
    {
    }

  private:
    void
    onEdge() override
    {
        if (!fifo_.canPush()) {
            std::printf("  (fifo full-flag set)");
            return;
        }
        fifo_.push(next_);
        std::printf("  -> push token %d", next_++);
    }

    Channel<int> &fifo_;
    int next_ = 0;
};

/** Domain 3: drains every token the synchronizer has made visible. */
class Consumer final : public EdgeLogger
{
  public:
    Consumer(ClockDomain &clk, Channel<int> &fifo)
        : EdgeLogger(clk), fifo_(fifo)
    {
    }

  private:
    void
    onEdge() override
    {
        const Tick now = clk_.eventQueue().now();
        while (!fifo_.empty()) {
            std::printf("  <- pop token %d (waited %.1f ns)",
                        fifo_.front(),
                        (now - fifo_.frontPushTick()) / 1000.0);
            fifo_.pop();
        }
    }

    Channel<int> &fifo_;
};

} // namespace

int
main(int argc, char **argv)
{
    const Tick horizon =
        (argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20) * 1000;

    EventQueue eq("playground");

    // The three clocks of paper Figure 4 (picosecond ticks).
    ClockDomain clk1(eq, "clock1", 2000, 500);
    ClockDomain clk2(eq, "clock2", 3000, 1000);
    ClockDomain clk3(eq, "clock3", 2500, 0);

    // An asynchronous FIFO from domain 1 to domain 3.
    Channel<int> fifo("fifo.1to3", ChannelMode::asyncFifo, clk1, clk3,
                      4, 2);

    Producer producer(clk1, fifo);
    EdgeLogger observer(clk2);
    Consumer consumer(clk3, fifo);

    clk1.start();
    clk2.start();
    clk3.start();
    eq.runUntil(horizon);

    std::printf("\nprocessed %llu events; fifo moved %llu tokens, "
                "mean residency %.2f ns\n",
                static_cast<unsigned long long>(eq.processedCount()),
                static_cast<unsigned long long>(fifo.pops()),
                fifo.pops() ? fifo.totalResidency() / 1000.0 /
                                  static_cast<double>(fifo.pops())
                            : 0.0);
    return 0;
}
