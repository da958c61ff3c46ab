/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, tie-breaking,
 * client dispatch, run limits, and a randomized differential test
 * against a reference stable-order model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/prng.hh"
#include "sim/event_queue.hh"
#include "test_util.hh"

namespace refrint::test
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    OneShots shots(eq);
    std::vector<Tick> fired;
    shots.at(30, [&](Tick t) { fired.push_back(t); });
    shots.at(10, [&](Tick t) { fired.push_back(t); });
    shots.at(20, [&](Tick t) { fired.push_back(t); });
    eq.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 20u);
    EXPECT_EQ(fired[2], 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        shots.at(5, [&order, i](Tick) { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesWithDispatch)
{
    EventQueue eq;
    OneShots shots(eq);
    EXPECT_EQ(eq.now(), 0u);
    shots.at(42, [](Tick) {});
    eq.run();
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    OneShots shots(eq);
    int count = 0;
    std::function<void(Tick)> chain = [&](Tick t) {
        if (++count < 5)
            shots.at(t + 10, chain);
    };
    shots.at(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    OneShots shots(eq);
    int fired = 0;
    shots.at(10, [&](Tick) { ++fired; });
    shots.at(20, [&](Tick) { ++fired; });
    shots.at(30, [&](Tick) { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2); // the tick-20 event still fires
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 3);
}

namespace
{
struct TagRecorder : EventClient
{
    std::vector<std::pair<Tick, std::uint64_t>> seen;
    void
    fire(Tick now, std::uint64_t tag) override
    {
        seen.emplace_back(now, tag);
    }
};
} // namespace

TEST(EventQueue, ClientDispatchCarriesTags)
{
    EventQueue eq;
    TagRecorder rec;
    eq.schedule(5, &rec, 111);
    eq.schedule(7, &rec, 222);
    eq.run();
    ASSERT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.seen[0], (std::pair<Tick, std::uint64_t>{5, 111}));
    EXPECT_EQ(rec.seen[1], (std::pair<Tick, std::uint64_t>{7, 222}));
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    OneShots shots(eq);
    EXPECT_FALSE(eq.step());
    shots.at(1, [](Tick) {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, StepThenBoundedRunKeepsTheTickFifo)
{
    // step() stops mid-tick; a bounded run() must neither dispatch the
    // rest of that tick early nor lose its place in it.
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        shots.at(10, [&order, i](Tick) { order.push_back(i); });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(eq.run(5), 10u) << "the rest of tick 10 lies past 5";
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(eq.run(10), 10u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    OneShots shots(eq);
    shots.at(100, [](Tick) {});
    eq.run();
    EXPECT_DEATH(shots.at(50, [](Tick) {}), "past");
}

// ---------------------------------------------------------------------
// 4-ary heap ordering under load
// ---------------------------------------------------------------------

TEST(EventQueue, SameTickFifoAcrossManyEventsAndKinds)
{
    // Hundreds of same-tick events, alternating one-shot callbacks and
    // plain client events: dispatch must stay in scheduling order
    // whatever client each entry carries.
    EventQueue eq;
    OneShots shots(eq);
    std::vector<int> order;
    struct Rec : EventClient
    {
        std::vector<int> *order;
        void
        fire(Tick, std::uint64_t tag) override
        {
            order->push_back(static_cast<int>(tag));
        }
    };
    Rec rec;
    rec.order = &order;
    for (int i = 0; i < 300; ++i) {
        if (i % 2 == 0)
            shots.at(7, [&order, i](Tick) { order.push_back(i); });
        else
            eq.schedule(7, &rec, static_cast<std::uint64_t>(i));
    }
    eq.run();
    ASSERT_EQ(order.size(), 300u);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FarFutureEventsInterleaveCorrectly)
{
    // Events far beyond the near/far split must still dispatch in
    // global (tick, seq) order with near events scheduled later.
    EventQueue eq;
    OneShots shots(eq);
    std::vector<Tick> fired;
    auto rec = [&](Tick t) { fired.push_back(t); };
    shots.at(1'000'000, rec); // far band
    shots.at(500'000, rec);   // far band
    shots.at(3, rec);         // near heap
    shots.at(0, [&](Tick t) {
        fired.push_back(t);
        // Scheduled mid-run: lands between the two far events.
        shots.at(750'000, rec);
    });
    eq.run();
    ASSERT_EQ(fired.size(), 5u);
    EXPECT_EQ(fired, (std::vector<Tick>{0, 3, 500'000, 750'000,
                                        1'000'000}));
}

TEST(EventQueue, SameTickFifoAcrossBandChange)
{
    // Six events for one tick, each admitted from a different distance
    // and so into a different band: the far band (which keeps it until
    // the window reaches the tick, so it joins its bucket last, behind
    // later admissions), the heap, 200 ticks out, either side of one
    // 64-slot occupancy word, and the current bucket itself.  They must
    // fire in the order they were scheduled.
    EventQueue eq;
    OneShots shots(eq);
    constexpr Tick kT = 5000;
    std::vector<int> order;
    auto rec = [&order](int id) {
        return [&order, id](Tick) { order.push_back(id); };
    };
    shots.at(0, [&](Tick) {
        shots.at(kT, [&](Tick t) {
            order.push_back(0);
            shots.at(t, rec(5));
        });
    });
    shots.at(1000, [&](Tick) {
        shots.at(kT, rec(1));
        shots.at(kT - 200, [&](Tick) {
            shots.at(kT, rec(2));
            shots.at(kT - 64, [&](Tick) { shots.at(kT, rec(3)); });
            shots.at(kT - 63, [&](Tick) { shots.at(kT, rec(4)); });
        });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), kT);
}

// ---------------------------------------------------------------------
// Randomized differential test: kernel order vs reference model
// ---------------------------------------------------------------------

namespace
{

/** A self-rescheduling client's next delta: three in four land on a
 *  band edge (either side of each 64-slot occupancy word of the
 *  256-slot wheel, of the wheel's end, and of the 4096-tick far
 *  horizon) or on the current tick; the rest are uniform over
 *  [0, 8192). */
Tick
edgeDelta(Prng &prng)
{
    static constexpr Tick kEdges[] = {0,   63,  64,  127,  128,  191,
                                      192, 255, 256, 4095, 4096};
    constexpr std::uint32_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
    return prng.below(4) != 0 ? kEdges[prng.below(kNumEdges)]
                              : prng.below(8192);
}

/** What a script may do to an event queue, so that one script can
 *  drive the kernel and the reference model identically. */
struct Scheduler
{
    virtual ~Scheduler() = default;
    virtual Tick now() const = 0;
    virtual void add(Tick when, int id) = 0;
};

/**
 * The clients' behaviour: every event, when it fires, schedules up to
 * two successors at edgeDelta(); between bounded runs the test injects
 * more from outside.  Every choice comes from one PRNG in dispatch
 * order, so two copies stay in lockstep exactly as long as their
 * dispatch orders agree.
 */
struct Script
{
    explicit Script(std::uint64_t seed) : prng(seed, 11) {}

    void
    spawn(Scheduler &s, std::uint32_t count)
    {
        for (std::uint32_t i = 0; i < count && nextId < kBudget; ++i)
            s.add(s.now() + edgeDelta(prng), nextId++);
    }

    void
    fired(Scheduler &s, int id)
    {
        order.push_back(id);
        spawn(s, prng.below(3));
    }

    static constexpr int kBudget = 3000;
    Prng prng;
    int nextId = 0;
    std::vector<int> order; ///< ids in dispatch order
};

/** The kernel contract in its plainest form: a list of pending events,
 *  dispatched by least (tick, schedule order). */
struct ReferenceScheduler : Scheduler
{
    struct Pending
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };

    Tick now() const override { return now_; }

    void
    add(Tick when, int id) override
    {
        pending.push_back(Pending{when, seq++, id});
    }

    /** Dispatch everything due at or before @p limit. */
    void
    run(Script &script, Tick limit)
    {
        for (;;) {
            auto next = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it)
                if (next == pending.end() || it->when < next->when ||
                    (it->when == next->when && it->seq < next->seq))
                    next = it;
            if (next == pending.end() || next->when > limit)
                return;
            const Pending e = *next;
            pending.erase(next);
            now_ = e.when;
            script.fired(*this, e.id);
        }
    }

    std::vector<Pending> pending;
    std::uint64_t seq = 0;
    Tick now_ = 0;
};

/** The kernel under test, behind the same interface. */
struct KernelScheduler : Scheduler, EventClient
{
    explicit KernelScheduler(Script &s) : script(s) {}

    Tick now() const override { return eq.now(); }

    void
    add(Tick when, int id) override
    {
        eq.schedule(when, this, static_cast<std::uint64_t>(id));
    }

    void
    fire(Tick, std::uint64_t tag) override
    {
        script.fired(*this, static_cast<int>(tag));
    }

    Script &script;
    EventQueue eq;
};

} // namespace

TEST(EventQueue, DifferentialOrderAgainstReferenceModel)
{
    // A reference model of the kernel contract: dispatch strictly by
    // (tick, schedule order).  Random schedules span the near/far
    // split.
    struct RefEvent
    {
        Tick when;
        std::uint64_t seq;
        int id;
    };

    Prng prng(1234, 7);
    for (int round = 0; round < 20; ++round) {
        EventQueue eq;
        std::vector<RefEvent> ref;
        std::vector<int> expect, got;
        std::uint64_t seq = 0;
        int nextId = 0;

        struct Rec : EventClient
        {
            std::vector<int> *got;
            void
            fire(Tick, std::uint64_t tag) override
            {
                got->push_back(static_cast<int>(tag));
            }
        };
        Rec rec;
        rec.got = &got;

        const int ops = 400;
        for (int i = 0; i < ops; ++i) {
            // Schedule at a random tick spanning both bands.
            const Tick when = prng.below(2) == 0 ? prng.below(1'000)
                                                 : prng.below(2'000'000);
            const int id = nextId++;
            eq.schedule(when, &rec, static_cast<std::uint64_t>(id));
            ref.push_back(RefEvent{when, seq++, id});
        }

        std::stable_sort(ref.begin(), ref.end(),
                         [](const RefEvent &a, const RefEvent &b) {
                             return a.when != b.when ? a.when < b.when
                                                     : a.seq < b.seq;
                         });
        for (const RefEvent &e : ref)
            expect.push_back(e.id);

        eq.run();
        EXPECT_EQ(got, expect) << "round " << round;
        EXPECT_TRUE(eq.empty());
    }

    // Clients that reschedule themselves during dispatch, weighted onto
    // the band edges, driven through bounded runs with injections from
    // outside between them: each injection lands relative to where the
    // bounded run stopped.
    for (std::uint64_t round = 0; round < 8; ++round) {
        Script kernelScript(round), refScript(round);
        KernelScheduler kernel(kernelScript);
        ReferenceScheduler ref;
        kernelScript.spawn(kernel, 8);
        refScript.spawn(ref, 8);
        Prng limits(round, 12);
        while (!kernel.eq.empty()) {
            const Tick limit = kernel.eq.now() + edgeDelta(limits);
            kernel.eq.run(limit);
            ref.run(refScript, limit);
            ASSERT_EQ(kernel.eq.now(), ref.now()) << "round " << round;
            kernelScript.spawn(kernel, 1);
            refScript.spawn(ref, 1);
        }
        ref.run(refScript, kTickNever);
        EXPECT_EQ(kernelScript.order, refScript.order) << "round " << round;
        EXPECT_EQ(kernelScript.nextId, Script::kBudget) << "round " << round;
        EXPECT_TRUE(ref.pending.empty());
    }
}

} // namespace refrint::test
