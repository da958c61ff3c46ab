#include "coherence/hierarchy.hh"

#include <string>

#include "common/log.hh"
#include "edram/refresh_engine.hh"
#include "mem/array_pool.hh"

namespace refrint
{

/**
 * Adapter binding a refresh engine to one cache unit within the
 * hierarchy.  Heavy actions (write-back, invalidation) route back into
 * the hierarchy so coherence and inclusion stay correct.
 */
struct Hierarchy::TargetAdapter : public RefreshTarget
{
    enum class Level
    {
        L1,
        L2,
        L3
    };

    TargetAdapter(Hierarchy &h, CacheUnit &u, Level lvl, std::uint32_t id,
                  std::string nm)
        : hier(h), unit(u), level(lvl), unitId(id), label(std::move(nm))
    {
    }

    /** Protocol role class of a descriptor (both L1s are one class). */
    static Level
    of(LevelRole r)
    {
        switch (r) {
          case LevelRole::IL1:
          case LevelRole::DL1:
            return Level::L1;
          case LevelRole::L2:
            return Level::L2;
          case LevelRole::LLC:
            return Level::L3;
        }
        panic("bad level role");
    }

    CacheArray &array() override { return unit.array; }

    void
    refreshLine(std::uint32_t idx, Tick now) override
    {
        (void)idx;
        (void)now;
        // Energy is charged from the engine's line_refreshes counter;
        // the per-unit tally feeds the thermal model's power input.
        unit.noteRefresh();
    }

    bool supportsBulkRefresh() const override { return true; }

    void
    refreshLinesBulk(std::uint32_t count, Tick now) override
    {
        (void)now;
        unit.noteRefresh(count);
    }

    void
    writebackLine(std::uint32_t idx, Tick now) override
    {
        switch (level) {
          case Level::L3:
            hier.l3RefreshWriteback(unitId, idx, now);
            break;
          case Level::L2:
            hier.l2RefreshWriteback(static_cast<CoreId>(unitId), idx, now);
            break;
          case Level::L1:
            panic("%s: L1 lines are never dirty (DL1 is write-through)",
                  label.c_str());
        }
    }

    void
    invalidateLine(std::uint32_t idx, Tick now) override
    {
        switch (level) {
          case Level::L3:
            hier.l3RefreshInvalidate(unitId, idx, now);
            break;
          case Level::L2:
          case Level::L1:
            hier.upperRefreshInvalidate(unit, static_cast<CoreId>(
                                                  unitId % hier.cfg_.numCores),
                                        idx, now);
            break;
        }
    }

    void
    addBusy(Tick now, Tick cycles) override
    {
        unit.addBusy(now, cycles);
    }

    const char *name() const override { return label.c_str(); }

    Hierarchy &hier;
    CacheUnit &unit;
    Level level;
    std::uint32_t unitId;
    std::string label;
};

Hierarchy::Hierarchy(const MachineConfig &cfg, EventQueue &eq,
                     Arena *arena, ArrayPool *pool)
    : cfg_(cfg),
      eq_(eq),
      arena_(arena),
      pool_(pool),
      net_(cfg.torusDim, cfg.hopLatency, cfg.dataSerialization, netStats_),
      dram_(cfg.dramLatency, cfg.dramMinGap, dramStats_)
{
    cfg_.validate();
    llcGeom_ = cfg_.llc().geom;
    refreshAtLlc_ = cfg_.llc().refreshed();
    bankShift_ = llcGeom_.lineBits();
    bankMask_ = isPowerOfTwo(cfg_.numBanks) ? cfg_.numBanks - 1 : 0;

    buildUnits();
    if (cfg_.anyEdram())
        buildRefreshEngines();
    else if (cfg_.decay.enabled)
        buildDecayEngines();
    if (cfg_.thermal.enabled)
        buildThermal();
}

Hierarchy::~Hierarchy() = default;

const Hierarchy::Level &
Hierarchy::levelOf(LevelRole r) const
{
    for (const Level &lv : levels_)
        if (lv.spec->role == r)
            return lv;
    panic("hierarchy has no %s level", levelRoleName(r));
}

void
Hierarchy::buildUnits()
{
    // One Level per descriptor, in descriptor order; refresh stats are
    // shared per role class (the paper reports three refresh levels).
    for (const CacheLevelSpec &spec : cfg_.levels) {
        Level lv;
        lv.spec = &spec;
        lv.stats = std::make_unique<StatGroup>(spec.name);
        switch (TargetAdapter::of(spec.role)) {
          case TargetAdapter::Level::L1:
            lv.refreshStats = &refreshL1Stats_;
            break;
          case TargetAdapter::Level::L2:
            lv.refreshStats = &refreshL2Stats_;
            break;
          case TargetAdapter::Level::L3:
            lv.refreshStats = &refreshL3Stats_;
            break;
        }
        levels_.push_back(std::move(lv));
    }

    // Instantiate units: core-major across the private levels (one
    // tile's caches are adjacent), then the shared levels per bank.
    std::vector<Level *> order;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        for (Level &lv : levels_) {
            if (lv.spec->sharing == Sharing::Private)
                order.push_back(&lv);
        }
    }
    for (Level &lv : levels_) {
        if (lv.spec->sharing != Sharing::BankedShared)
            continue;
        for (std::uint32_t b = 0; b < cfg_.numBanks; ++b)
            order.push_back(&lv);
    }
    // A pooled machine first frees the held storage none of its arrays
    // will take, so a worker never holds two machines' arrays.
    if (pool_ != nullptr) {
        std::vector<ArrayShape> shapes;
        shapes.reserve(order.size());
        for (const Level *lv : order)
            shapes.push_back(ArrayShape::of(lv->spec->geom));
        pool_->keepOnly(std::move(shapes));
    }
    for (Level *lv : order) {
        lv->units.push_back(std::make_unique<CacheUnit>(
            lv->spec->name, lv->spec->geom, *lv->stats, arena_, pool_));
    }

    // Resolve the protocol's role handles.
    il1L_ = &levelOf(LevelRole::IL1);
    dl1L_ = &levelOf(LevelRole::DL1);
    l2L_ = &levelOf(LevelRole::L2);
    llcL_ = &levelOf(LevelRole::LLC);
    auto view = [](const Level &lv) {
        std::vector<CacheUnit *> v;
        v.reserve(lv.units.size());
        for (const auto &u : lv.units)
            v.push_back(u.get());
        return v;
    };
    il1s_ = view(*il1L_);
    dl1s_ = view(*dl1L_);
    l2s_ = view(*l2L_);
    l3s_ = view(*llcL_);
}

void
Hierarchy::buildRefreshEngines()
{
    auto build = [&](Level &lv, CacheUnit &u, std::uint32_t id) {
        targets_.push_back(std::make_unique<TargetAdapter>(
            *this, u, TargetAdapter::of(lv.spec->role), id, lv.spec->name));
        engines_.push_back(makeRefreshEngine(*targets_.back(),
                                             lv.spec->policy,
                                             cfg_.retention,
                                             lv.spec->engine, eq_,
                                             *lv.refreshStats, arena_));
        u.engine = engines_.back().get();
    };

    // Engine order mirrors unit order (core-major private levels, then
    // the shared banks): engine start order determines same-tick event
    // FIFO order, so this order is part of the machine's definition.
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        for (Level &lv : levels_) {
            if (lv.spec->sharing != Sharing::Private ||
                !lv.spec->refreshed())
                continue;
            build(lv, *lv.units[c], c);
        }
    }
    for (Level &lv : levels_) {
        if (lv.spec->sharing != Sharing::BankedShared ||
            !lv.spec->refreshed())
            continue;
        for (std::uint32_t b = 0; b < cfg_.numBanks; ++b)
            build(lv, *lv.units[b], b);
    }
}

void
Hierarchy::buildDecayEngines()
{
    auto build = [&](Level &lv, CacheUnit &u, std::uint32_t id) {
        targets_.push_back(std::make_unique<TargetAdapter>(
            *this, u, TargetAdapter::of(lv.spec->role), id, lv.spec->name));
        engines_.push_back(std::make_unique<DecayEngine>(
            *targets_.back(), cfg_.decay, eq_, *lv.refreshStats));
        u.engine = engines_.back().get();
    };

    for (Level &lv : levels_) {
        const bool wanted =
            (lv.spec->role == LevelRole::L2 && cfg_.decay.atL2) ||
            (lv.spec->role == LevelRole::LLC && cfg_.decay.atL3);
        if (!wanted)
            continue;
        for (std::uint32_t i = 0; i < lv.units.size(); ++i)
            build(lv, *lv.units[i], i);
    }
}

void
Hierarchy::buildThermal()
{
    panicIf(!cfg_.anyEdram(),
            "thermal model requires an eDRAM level (SRAM retention "
            "is not temperature-limited)");
    thermal_ = std::make_unique<ThermalDriver>(
        cfg_.thermal, cfg_.retention.thermal, eq_, thermalStats_);
    // Every eDRAM unit is one lumped node.  Leakage and access energy
    // come from the same calibrated coefficients the end-of-run energy
    // model uses, with the Table 5.2 eDRAM leakage ratio applied.
    const EnergyParams &ep = cfg_.thermal.energy;
    const double lr = ep.edramLeakRatio;
    auto coeffs = [&](LevelRole r, double &leakW, double &accessJ) {
        switch (TargetAdapter::of(r)) {
          case TargetAdapter::Level::L1:
            leakW = ep.leakL1;
            accessJ = ep.eL1Access;
            break;
          case TargetAdapter::Level::L2:
            leakW = ep.leakL2;
            accessJ = ep.eL2Access;
            break;
          case TargetAdapter::Level::L3:
            leakW = ep.leakL3Bank;
            accessJ = ep.eL3Access;
            break;
        }
    };
    // Node order mirrors unit order (see buildRefreshEngines).
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        for (Level &lv : levels_) {
            if (lv.spec->sharing != Sharing::Private ||
                !lv.spec->refreshed())
                continue;
            double leakW = 0, accessJ = 0;
            coeffs(lv.spec->role, leakW, accessJ);
            thermal_->addUnit(*lv.units[c], leakW * lr, accessJ);
        }
    }
    for (Level &lv : levels_) {
        if (lv.spec->sharing != Sharing::BankedShared ||
            !lv.spec->refreshed())
            continue;
        double leakW = 0, accessJ = 0;
        coeffs(lv.spec->role, leakW, accessJ);
        for (std::uint32_t b = 0; b < cfg_.numBanks; ++b)
            thermal_->addUnit(*lv.units[b], leakW * lr, accessJ);
    }
}

void
Hierarchy::start(Tick now)
{
    for (auto &e : engines_)
        e->start(now);
    if (thermal_ != nullptr)
        thermal_->start(now);
}

void
Hierarchy::finishEngines(Tick now)
{
    for (auto &e : engines_)
        e->finish(now);
}

// ---------------------------------------------------------------------
// Demand access path
// ---------------------------------------------------------------------

Tick
Hierarchy::access(CoreId c, Addr a, AccessType type, Tick now,
                  std::uint32_t blocks)
{
    panicIf(c >= cfg_.numCores, "core id out of range");
    a = llcGeom_.lineAddr(a);

    const bool isStore = type == AccessType::Store;
    CacheUnit &l1 = type == AccessType::Fetch ? *il1s_[c] : *dl1s_[c];

    // ---- L1 ----
    Tick t = l1.admit(now) + l1.latency;
    if (isStore)
        l1.noteWrite();
    else
        l1.noteRead(blocks);
    CacheLine *l1Line = l1.array.lookup(a);
    if (l1Line != nullptr)
        l1.touchLine(*l1Line, t);
    else
        l1.misses->inc();

    if (l1Line != nullptr && !isStore)
        return t; // load/fetch hit: done

    // ---- L2 (loads on L1 miss; every store — DL1 is write-through) ----
    CacheUnit &l2u = *l2s_[c];
    t = l2u.admit(t) + l2u.latency;
    if (isStore)
        l2u.noteWrite();
    else
        l2u.noteRead();
    CacheLine *l2Line = l2u.array.lookup(a);

    if (l2Line != nullptr && !isStore) {
        l2u.touchLine(*l2Line, t);
        l1Fill(l1, a, t);
        return t;
    }
    if (l2Line != nullptr && isStore) {
        if (l2Line->state == Mesi::Modified) {
            l2u.touchLine(*l2Line, t);
            return t;
        }
        if (l2Line->state == Mesi::Exclusive) {
            // Silent E->M upgrade; the directory already records this
            // core as the owner.
            l2Line->state = Mesi::Modified;
            l2Line->dirty = true;
            l2u.touchLine(*l2Line, t);
            return t;
        }
        // Shared: fall through to the directory for an upgrade.
    }
    if (l2Line == nullptr)
        l2u.misses->inc();

    // ---- LLC home bank / directory ----
    const std::uint32_t bank = bankOf(a);
    t += net_.traverse(c, bank, MsgClass::Control);
    CacheUnit &l3u = *l3s_[bank];
    t = l3u.admit(t) + l3u.latency;
    l3u.noteRead();
    CacheLine *line = l3u.array.lookup(a);

    if (line == nullptr) {
        l3u.misses->inc();
        line = l3MissFill(bank, a, t);
    } else {
        if (line->owner >= 0 && static_cast<CoreId>(line->owner) != c)
            t += ownerIntervention(bank, *line, t, /*invalidate=*/isStore);
        l3u.touchLine(*line, t);
    }

    if (isStore) {
        // Request for ownership: every other copy must go.
        t += invalidateSharers(bank, *line, c, t);
        line->sharers = std::uint64_t{1} << c;
        line->owner = static_cast<std::int8_t>(c);
    } else {
        line->sharers |= std::uint64_t{1} << c;
        if (line->sharers == (std::uint64_t{1} << c) && line->owner < 0)
            line->owner = static_cast<std::int8_t>(c); // grant Exclusive
    }

    // Data (or ownership grant) back to the requester.
    t += net_.traverse(bank, c, MsgClass::Data);

    // Fill the private hierarchy.
    if (isStore) {
        if (l2Line != nullptr) {
            // S -> M upgrade in place.
            l2Line->state = Mesi::Modified;
            l2Line->dirty = true;
            l2u.touchLine(*l2Line, t);
        } else {
            l2Fill(c, a, Mesi::Modified, t);
        }
        // DL1 is no-write-allocate: update only an existing L1 copy
        // (already touched above if present).
    } else {
        const Mesi grant =
            (line->owner >= 0 && static_cast<CoreId>(line->owner) == c)
                ? Mesi::Exclusive
                : Mesi::Shared;
        l2Fill(c, a, grant, t);
        l1Fill(l1, a, t);
    }
    return t;
}

// ---------------------------------------------------------------------
// Fills, evictions, directory actions
// ---------------------------------------------------------------------

CacheLine *
Hierarchy::l3MissFill(std::uint32_t bank, Addr a, Tick &t)
{
    CacheUnit &l3u = *l3s_[bank];
    VictimRef v = l3u.array.pickVictim(a);
    if (v.line->valid()) {
        l3u.evictions->inc();
        dropL3Line(bank, *v.line, t, /*refreshCaused=*/false);
    }
    t = dram_.read(t);
    l3u.array.install(v, a, t, Mesi::Shared); // "valid" marker at LLC
    CacheLine &line = *v.line;
    l3u.noteWrite(); // the fill writes the data array
    l3u.fills->inc();
    l3u.installLine(line, t);
    return &line;
}

void
Hierarchy::dropL3Line(std::uint32_t bank, CacheLine &line, Tick now,
                      bool refreshCaused)
{
    const Addr a = line.tag;
    bool dataToDram = line.dirty;

    if (line.owner >= 0) {
        // The owner may hold newer (Modified) data; rescue it.
        const auto o = static_cast<CoreId>(line.owner);
        net_.traverse(bank, o, MsgClass::Control);
        CacheLine *ol = l2s_[o]->array.lookup(a);
        if (ol != nullptr && ol->state == Mesi::Modified) {
            net_.traverse(o, bank, MsgClass::Data);
            dataToDram = true;
        } else {
            net_.traverse(o, bank, MsgClass::Control); // ack
        }
    }
    // Invalidate every private copy (inclusive hierarchy, §3.1).
    // Iterate set bits of the sharer mask; most lines have 0-2 sharers.
    for (std::uint64_t m = line.sharers; m != 0; m &= m - 1) {
        const auto s = static_cast<CoreId>(__builtin_ctzll(m));
        if (line.owner < 0 || static_cast<CoreId>(line.owner) != s)
            net_.traverse(bank, s, MsgClass::Control);
        invalidatePrivateCopies(s, a, /*countBackInval=*/true);
    }
    if (dataToDram)
        dram_.write(now);
    (void)refreshCaused;
    l3s_[bank]->array.invalidate(line);
}

Tick
Hierarchy::ownerIntervention(std::uint32_t bank, CacheLine &line, Tick t,
                             bool invalidateOwner)
{
    const auto o = static_cast<CoreId>(line.owner);
    CacheUnit &l3u = *l3s_[bank];
    CacheUnit &ol2 = *l2s_[o];

    Tick lat = net_.traverse(bank, o, MsgClass::Control);
    Tick ot = ol2.admit(t + lat) + ol2.latency;
    ol2.noteRead();

    CacheLine *ol = ol2.array.lookup(line.tag);
    panicIf(ol == nullptr, "directory owner lost its line");
    const bool wasModified = ol->state == Mesi::Modified;

    if (wasModified) {
        // Data flows back to the LLC (and becomes the LLC's dirty copy).
        lat = (ot - t) + net_.traverse(o, bank, MsgClass::Data);
        line.dirty = true;
        l3u.noteWrite();
    } else {
        lat = (ot - t) + net_.traverse(o, bank, MsgClass::Control);
    }

    if (invalidateOwner) {
        invalidatePrivateCopies(o, line.tag, /*countBackInval=*/false);
        line.sharers &= ~(std::uint64_t{1} << o);
    } else {
        // Downgrade to Shared; owner keeps a clean copy.
        ol->state = Mesi::Shared;
        ol->dirty = false;
    }
    line.owner = -1;
    return lat;
}

Tick
Hierarchy::invalidateSharers(std::uint32_t bank, CacheLine &line,
                             CoreId except, Tick t)
{
    Tick maxLat = 0;
    for (std::uint64_t m = line.sharers; m != 0; m &= m - 1) {
        const auto s = static_cast<CoreId>(__builtin_ctzll(m));
        if (s == except)
            continue;
        const Tick out = net_.traverse(bank, s, MsgClass::Control);
        const Tick back = net_.traverse(s, bank, MsgClass::Control);
        invalidatePrivateCopies(s, line.tag, /*countBackInval=*/false);
        maxLat = std::max(maxLat, out + back);
    }
    (void)t;
    return maxLat;
}

void
Hierarchy::invalidatePrivateCopies(CoreId c, Addr a, bool countBackInval)
{
    CacheLine *l2l = l2s_[c]->array.lookup(a);
    if (l2l != nullptr) {
        l2s_[c]->array.invalidate(*l2l);
        if (countBackInval)
            l2s_[c]->backInvals->inc();
    }
    if (CacheLine *l = dl1s_[c]->array.lookup(a)) {
        dl1s_[c]->array.invalidate(*l);
        if (countBackInval)
            dl1s_[c]->backInvals->inc();
    }
    if (CacheLine *l = il1s_[c]->array.lookup(a)) {
        il1s_[c]->array.invalidate(*l);
        if (countBackInval)
            il1s_[c]->backInvals->inc();
    }
}

CacheLine *
Hierarchy::l2Fill(CoreId c, Addr a, Mesi st, Tick now)
{
    CacheUnit &l2u = *l2s_[c];
    VictimRef v = l2u.array.pickVictim(a);
    if (v.line->valid()) {
        l2u.evictions->inc();
        evictL2Victim(c, *v.line, now);
    }
    l2u.array.install(v, a, now, st);
    CacheLine &line = *v.line;
    line.dirty = st == Mesi::Modified;
    l2u.noteWrite(); // fill write
    l2u.fills->inc();
    l2u.installLine(line, now);
    return &line;
}

void
Hierarchy::l1Fill(CacheUnit &l1, Addr a, Tick now)
{
    if (l1.array.lookup(a) != nullptr)
        return; // e.g. a store left the line behind
    VictimRef v = l1.array.pickVictim(a);
    if (v.line->valid())
        l1.evictions->inc(); // L1 lines are clean: silent drop
    l1.array.install(v, a, now, Mesi::Shared);
    l1.noteWrite();
    l1.fills->inc();
    l1.installLine(*v.line, now);
}

void
Hierarchy::evictL2Victim(CoreId c, CacheLine &victim, Tick now)
{
    const Addr a = victim.tag;
    const std::uint32_t bank = bankOf(a);
    CacheUnit &l3u = *l3s_[bank];
    CacheLine *l3l = l3u.array.lookup(a);
    panicIf(l3l == nullptr, "inclusion violated: L2 line missing in L3");

    if (victim.state == Mesi::Modified) {
        // Dirty write-back to the LLC: the LLC copy becomes dirty and
        // the access refreshes the LLC line.  This is the "visibility"
        // the paper's Class 1/2 applications give the last-level cache.
        net_.traverse(c, bank, MsgClass::Data);
        l3u.noteWrite();
        l3l->dirty = true;
        l3u.touchLine(*l3l, now);
    } else {
        // Clean eviction: notify the directory so its sharer list stays
        // exact (control message only).
        net_.traverse(c, bank, MsgClass::Control);
    }
    if (l3l->owner >= 0 && static_cast<CoreId>(l3l->owner) == c)
        l3l->owner = -1;
    l3l->sharers &= ~(std::uint64_t{1} << c);

    // Inclusion: L1 copies go with the L2 line.
    if (CacheLine *l = dl1s_[c]->array.lookup(a))
        dl1s_[c]->array.invalidate(*l);
    if (CacheLine *l = il1s_[c]->array.lookup(a))
        il1s_[c]->array.invalidate(*l);
    l2s_[c]->array.invalidate(victim);
}

// ---------------------------------------------------------------------
// Refresh-triggered actions
// ---------------------------------------------------------------------

void
Hierarchy::l3RefreshWriteback(std::uint32_t bank, std::uint32_t idx,
                              Tick now)
{
    CacheUnit &l3u = *l3s_[bank];
    CacheLine &line = l3u.array.lineAt(idx);
    panicIf(!line.valid() || !line.dirty,
            "refresh write-back of a non-dirty line");
    // Read the line out and post it to DRAM; it stays Valid-Clean.
    l3u.noteRead();
    dram_.write(now);
    line.dirty = false;
}

void
Hierarchy::l3RefreshInvalidate(std::uint32_t bank, std::uint32_t idx,
                               Tick now)
{
    CacheUnit &l3u = *l3s_[bank];
    CacheLine &line = l3u.array.lineAt(idx);
    panicIf(!line.valid(), "refresh invalidation of an invalid line");
    dropL3Line(bank, line, now, /*refreshCaused=*/true);
}

void
Hierarchy::l2RefreshWriteback(CoreId c, std::uint32_t idx, Tick now)
{
    CacheUnit &l2u = *l2s_[c];
    CacheLine &line = l2u.array.lineAt(idx);
    panicIf(!line.valid() || line.state != Mesi::Modified,
            "L2 refresh write-back of a non-Modified line");
    const Addr a = line.tag;
    const std::uint32_t bank = bankOf(a);
    CacheUnit &l3u = *l3s_[bank];
    CacheLine *l3l = l3u.array.lookup(a);
    panicIf(l3l == nullptr, "inclusion violated on L2 refresh WB");
    net_.traverse(c, bank, MsgClass::Data);
    l3u.noteWrite();
    l3l->dirty = true;
    l3u.touchLine(*l3l, now);
    // The line stays resident, now clean: M -> E (the directory still
    // records this core as owner, which covers both E and M).
    line.state = Mesi::Exclusive;
    line.dirty = false;
}

void
Hierarchy::upperRefreshInvalidate(CacheUnit &unit, CoreId c,
                                  std::uint32_t idx, Tick now)
{
    CacheLine &line = unit.array.lineAt(idx);
    panicIf(!line.valid(), "refresh invalidation of an invalid line");
    const Addr a = line.tag;

    const bool isL2 = &unit == l2s_[c];
    if (isL2) {
        if (line.state == Mesi::Modified)
            l2RefreshWriteback(c, idx, now);
        // Notify the directory and drop the whole private subtree.
        const std::uint32_t bank = bankOf(a);
        CacheLine *l3l = l3s_[bank]->array.lookup(a);
        if (l3l != nullptr) {
            if (l3l->owner >= 0 && static_cast<CoreId>(l3l->owner) == c)
                l3l->owner = -1;
            l3l->sharers &= ~(std::uint64_t{1} << c);
        }
        net_.traverse(c, bankOf(a), MsgClass::Control);
        if (CacheLine *l = dl1s_[c]->array.lookup(a))
            dl1s_[c]->array.invalidate(*l);
        if (CacheLine *l = il1s_[c]->array.lookup(a))
            il1s_[c]->array.invalidate(*l);
    }
    unit.array.invalidate(line);
}

// ---------------------------------------------------------------------
// End-of-run + verification
// ---------------------------------------------------------------------

void
Hierarchy::flushDirty()
{
    // Only journaled sets can hold a valid line.
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        l2s_[c]->array.forEachTouchedLine(
            [&](std::uint32_t, CacheLine &l) {
                if (l.valid() && l.state == Mesi::Modified)
                    dram_.accountUntimedWrite();
            });
    }
    for (CacheUnit *bank : l3s_) {
        bank->array.forEachTouchedLine([&](std::uint32_t, CacheLine &l) {
            if (l.valid() && l.dirty)
                dram_.accountUntimedWrite();
        });
    }
}

void
Hierarchy::checkInvariants(Tick now) const
{
    auto &self = const_cast<Hierarchy &>(*this);
    // The packed probe mirrors must agree with the line structs.
    for (const Level &lv : levels_)
        for (const auto &u : lv.units)
            u->array.checkProbeCoherence();
    // L1 subset-of L2; L2 subset-of L3; directory exactness.
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        for (CacheUnit *l1 : {self.il1s_[c], self.dl1s_[c]}) {
            l1->array.forEachLine([&](std::uint32_t, CacheLine &l) {
                if (!l.valid())
                    return;
                panicIf(self.l2s_[c]->array.lookup(l.tag) == nullptr,
                        "L1 line not present in L2 (inclusion)");
            });
        }
        self.l2s_[c]->array.forEachLine([&](std::uint32_t, CacheLine &l) {
            if (!l.valid())
                return;
            CacheLine *l3l =
                self.l3s_[self.bankOf(l.tag)]->array.lookup(l.tag);
            panicIf(l3l == nullptr, "L2 line not present in L3");
            panicIf(!hasSharer(*l3l, c),
                    "directory lost a sharer");
            if (l.state == Mesi::Modified || l.state == Mesi::Exclusive) {
                panicIf(l3l->owner != static_cast<std::int8_t>(c),
                        "directory owner mismatch");
            }
            panicIf(l.dirty != (l.state == Mesi::Modified),
                    "dirty flag out of sync with MESI state");
        });
    }
    for (std::uint32_t b = 0; b < cfg_.numBanks; ++b) {
        self.l3s_[b]->array.forEachLine([&](std::uint32_t, CacheLine &l) {
            if (!l.valid()) {
                panicIf(l.sharers != 0 || l.owner >= 0,
                        "invalid L3 line with directory residue");
                return;
            }
            if (l.owner >= 0) {
                const auto o = static_cast<CoreId>(l.owner);
                panicIf(!hasSharer(l, o), "owner missing from sharers");
                CacheLine *ol = self.l2s_[o]->array.lookup(l.tag);
                panicIf(ol == nullptr, "owner L2 lost the line");
                panicIf(ol->state != Mesi::Modified &&
                            ol->state != Mesi::Exclusive,
                        "owner L2 not in E/M");
            }
            for (CoreId s = 0; s < cfg_.numCores; ++s) {
                if (!hasSharer(l, s))
                    continue;
                panicIf(self.l2s_[s]->array.lookup(l.tag) == nullptr,
                        "directory sharer without an L2 copy");
            }
            if (refreshAtLlc_) {
                // 256-tick slack: see kWalkLookaheadSlack in cache_unit.
                panicIf(l.dataExpiry + 256 < now,
                        "valid L3 line past its retention deadline");
            }
        });
    }
}

HierarchyCounts
Hierarchy::counts() const
{
    // Direct counter reads — no per-run string-keyed map rebuild.
    auto get = [](const StatGroup &g, const char *k) {
        const Counter *c = g.findCounter(k);
        return c == nullptr ? 0ull : c->value();
    };
    auto getd = [](const StatGroup &g, const char *k) {
        const Accum *a = g.findAccum(k);
        return a == nullptr ? 0.0 : a->value();
    };
    const StatGroup &il1Stats = *il1L_->stats;
    const StatGroup &dl1Stats = *dl1L_->stats;
    const StatGroup &l2Stats = *l2L_->stats;
    const StatGroup &l3Stats = *llcL_->stats;
    HierarchyCounts n;
    n.l1Reads = get(il1Stats, "reads") + get(dl1Stats, "reads");
    n.l1Writes = get(il1Stats, "writes") + get(dl1Stats, "writes");
    n.l2Reads = get(l2Stats, "reads");
    n.l2Writes = get(l2Stats, "writes");
    n.l3Reads = get(l3Stats, "reads");
    n.l3Writes = get(l3Stats, "writes");
    n.l1Refreshes = get(refreshL1Stats_, "line_refreshes");
    n.l2Refreshes = get(refreshL2Stats_, "line_refreshes");
    n.l3Refreshes = get(refreshL3Stats_, "line_refreshes");
    n.dramAccesses = get(dramStats_, "reads") + get(dramStats_, "writes");
    n.netHops = get(netStats_, "hops");
    n.netDataMsgs = get(netStats_, "data_msgs");
    n.netCtrlMsgs = get(netStats_, "ctrl_msgs");
    n.l3Misses = get(l3Stats, "misses");
    n.l2Misses = get(l2Stats, "misses");
    n.dl1Misses = get(dl1Stats, "misses");
    n.refreshWritebacks = get(refreshL1Stats_, "refresh_writebacks") +
                          get(refreshL2Stats_, "refresh_writebacks") +
                          get(refreshL3Stats_, "refresh_writebacks");
    n.refreshInvalidations =
        get(refreshL1Stats_, "refresh_invalidations") +
        get(refreshL2Stats_, "refresh_invalidations") +
        get(refreshL3Stats_, "refresh_invalidations");
    n.decayedHits = get(il1Stats, "decayed_hits") +
                    get(dl1Stats, "decayed_hits") +
                    get(l2Stats, "decayed_hits") +
                    get(l3Stats, "decayed_hits");
    n.l2OffLineTicks = getd(refreshL2Stats_, "off_line_ticks");
    n.l3OffLineTicks = getd(refreshL3Stats_, "off_line_ticks");
    return n;
}

void
Hierarchy::dumpStats(std::map<std::string, double> &out) const
{
    for (const Level &lv : levels_)
        lv.stats->dump(out);
    netStats_.dump(out);
    dramStats_.dump(out);
    refreshL1Stats_.dump(out);
    refreshL2Stats_.dump(out);
    refreshL3Stats_.dump(out);
    thermalStats_.dump(out);
}

} // namespace refrint
