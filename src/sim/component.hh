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
 * type, so the memoized inline fast paths are statically dispatched.
 */

#ifndef DX_SIM_COMPONENT_HH
#define DX_SIM_COMPONENT_HH

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

  private:
    std::string name_;
    Component *parent_ = nullptr;
    std::vector<Component *> children_;
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
