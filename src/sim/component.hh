/**
 * @file
 * Component: the common base of everything the simulator instantiates.
 *
 * A component has a name, a position in the ownership tree (parent /
 * children, dotted path like "system.core0.l1d") and two introspection
 * hooks: registerStats() publishes its counters under its path into a
 * StatRegistry, portRefs() reports its request port slots for the
 * connectivity audit.
 *
 * Scheduling is not virtual. The System calls the members of the
 * Ticked concept below through each component's concrete `final`
 * type. What crosses components is touch(): the call that tells the
 * System's wake list another component is about to change this one.
 */

#ifndef DX_SIM_COMPONENT_HH
#define DX_SIM_COMPONENT_HH

#include <algorithm>
#include <concepts>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dx
{

class StatRegistry;

/** One request-port slot of a component, for the connectivity audit. */
struct PortRef
{
    const char *name;
    bool bound;
};

/**
 * The tick contract every component the System ticks meets (DESIGN.md
 * §4c). nextEventAt() is the earliest cycle tick() could act without
 * external stimulus: a value at or before the cycle being decided
 * means "tick me", kNeverCycle means only external stimulus can wake
 * it. skipCycles(n) is the closed form of n ticks that nextEventAt()
 * proved no-ops, accruing exactly the stats the naive loop would have.
 * drained() means nothing is in flight (run termination).
 */
template <typename C>
concept Ticked = requires(C &c, const C &cc, Cycle n) {
    c.tick();
    { cc.nextEventAt() } -> std::same_as<Cycle>;
    c.skipCycles(n);
    { cc.drained() } -> std::same_as<bool>;
};

/**
 * The System's wake list (DESIGN.md §4c): per tick-order slot, the
 * cycle the slot is next due (wakeAt) and the cycle its component's
 * clock has reached. A walk visits the slots in tick order and passes
 * over every slot that is not due; touch() is how an entry point tells
 * the list it is about to change a component from outside its tick.
 */
class WakeList
{
  public:
    explicit WakeList(const Cycle &now) : now_(now) {}

    bool empty() const { return slots_.empty(); }

    /** Append @p c as the next slot, due at the next cycle. */
    template <Ticked C>
    void
    add(C &c)
    {
        c.wake_ = this;
        c.slot_ = static_cast<unsigned>(slots_.size());
        slots_.push_back({now_ + 1, now_, &c, [](void *p, Cycle n) {
                              static_cast<C *>(p)->skipCycles(n);
                          }});
        cursor_ = static_cast<unsigned>(slots_.size());
    }

    /** The earliest cycle any slot is due. */
    Cycle
    next() const
    {
        Cycle t = kNeverCycle;
        for (const Slot &s : slots_)
            t = std::min(t, s.wakeAt);
        return t;
    }

    /** Start a walk at the current cycle: visit() the slots in order. */
    void begin() { cursor_ = 0; }

    /**
     * The walk's next slot, @p c: if due, catch it up to the previous
     * cycle and tick it when its next event is now (then it is due
     * again next cycle); else it sleeps until that event.
     */
    template <Ticked C>
    void
    visit(C &c)
    {
        Slot &s = slots_[cursor_];
        if (s.wakeAt <= now_) {
            if (s.clock + 1 < now_)
                c.skipCycles(now_ - 1 - s.clock);
            const Cycle ev = c.nextEventAt();
            if (ev <= now_) {
                s.clock = now_;
                s.wakeAt = now_ + 1;
                c.tick();
            } else {
                s.clock = now_ - 1;
                s.wakeAt = ev;
            }
        }
        ++cursor_;
    }

    /**
     * Slot @p i is about to be changed from outside its tick. Catch it
     * up to where the naive loop's clock would stand — this cycle if
     * the walk has passed its slot (or is at it), the previous one if
     * not — and make it due at the first cycle its slot can still be
     * decided.
     */
    void
    touch(unsigned i)
    {
        Slot &s = slots_[i];
        const bool passed = i <= cursor_;
        catchUp(s, passed ? now_ : now_ - 1);
        s.wakeAt = std::min(s.wakeAt, passed ? now_ + 1 : now_);
    }

    /** Catch every slot up to the current cycle; none becomes due. */
    void
    sync()
    {
        for (Slot &s : slots_)
            catchUp(s, now_);
    }

  private:
    struct Slot
    {
        Cycle wakeAt;
        Cycle clock;
        void *component;
        void (*skip)(void *, Cycle);
    };

    /** A catch-up never moves a clock backwards. */
    static void
    catchUp(Slot &s, Cycle target)
    {
        if (s.clock < target) {
            s.skip(s.component, target - s.clock);
            s.clock = target;
        }
    }

    const Cycle &now_;
    unsigned cursor_ = 0; //!< slot being visited; size() between walks
    std::vector<Slot> slots_;
};

class Component
{
  public:
    explicit Component(std::string name);
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return name_; }
    Component *parent() const { return parent_; }
    const std::vector<Component *> &children() const { return children_; }

    /**
     * Attach @p child beneath this component in the naming tree.
     * Ownership stays with the caller (the topology holds the
     * unique_ptrs); the tree only describes structure.
     */
    void adopt(Component &child);

    /** Rename before adoption (multi-instance disambiguation). */
    void rename(std::string name);

    /** Dotted path from the root, e.g. "system.core0.l1d". */
    std::string path() const;

    // ---- introspection -------------------------------------------------

    /** Publish counters/gauges under path() into @p reg. */
    virtual void registerStats(StatRegistry &reg) const { (void)reg; }

    /** This component's request-port slots (name, bound). */
    virtual std::vector<PortRef> portRefs() const { return {}; }

    // ---- scheduling ----------------------------------------------------

    /**
     * Another component is about to change this one: catch its clock
     * up and make it due (WakeList::touch). Every entry point that lets
     * one component change another calls it first. A no-op unless a
     * scheduled System ticks this component.
     */
    void
    touch()
    {
        if (wake_)
            wake_->touch(slot_);
    }

    /**
     * A port this component is bound to released an entry (see
     * RequestPort::addClient): a send it was refused may now be
     * admitted, so it becomes due.
     */
    virtual void departure() { touch(); }

  private:
    friend class WakeList;

    WakeList *wake_ = nullptr;
    unsigned slot_ = 0;
    std::string name_;
    Component *parent_ = nullptr;
    std::vector<Component *> children_;
};

/**
 * Depth-first pre-order traversal of the component tree rooted at
 * @p root, invoking f(const Component &) on every node.
 */
template <typename F>
void
forEachComponent(const Component &root, F &&f)
{
    f(root);
    for (const Component *c : root.children())
        forEachComponent(*c, f);
}

/** registerStats() over the whole tree (used by System's constructor). */
void registerTreeStats(const Component &root, StatRegistry &reg);

} // namespace dx

#endif // DX_SIM_COMPONENT_HH
