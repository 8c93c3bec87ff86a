/**
 * @file
 * The unified port layer: every request/response link between
 * components is an instantiation of the two templates below.
 *
 *  - RequestPort<Req> is the admission-gated request side; every
 *    client bound to it is woken when an entry leaves. The cache
 *    hierarchy's CachePort, the DRAM adapter, the range router and
 *    DX100's scratchpad port are all RequestPort<cache::CacheReq>.
 *    A port answers one admission question, for the request about to
 *    be sent.
 *  - Completion<Payload> is the response side. Every response, from a
 *    cache, a DRAM channel or the scratchpad, is
 *    Completion<std::uint64_t> carrying the requester's own cookie;
 *    there is deliberately no second instantiation.
 *  - SnoopPort is the residency/invalidation interface DX100's
 *    coherency agent uses against the (inclusive) cache hierarchy.
 *  - PortSlot<Req> is the wiring end: a named, bind-exactly-once
 *    holder components expose through Component::portRefs() so the
 *    topology tests can audit connectivity.
 *
 * Domain-specific names (cache::CachePort, cache::CacheRespSink)
 * survive as thin aliases of these templates.
 */

#ifndef DX_SIM_PORT_HH
#define DX_SIM_PORT_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/component.hh"

namespace dx
{

/** Receives typed completions (the response half of every link). */
template <typename Payload>
class Completion
{
  public:
    virtual ~Completion() = default;
    virtual void complete(const Payload &p) = 0;
};

/** Anything a component can send typed requests to. */
template <typename Req>
class RequestPort
{
  public:
    virtual ~RequestPort() = default;

    /**
     * Could @p req be sent now? Ports that multiplex resources by
     * address (the DRAM adapter's per-channel queues) ask only the one
     * @p req would take, so one busy resource does not starve traffic
     * headed elsewhere; single-queue ports ignore it.
     */
    virtual bool canAccept(const Req &req) const = 0;

    /**
     * Wake @p client (Component::departure) whenever an entry leaves
     * whatever gates admission here (queue pops, command issues).
     * Arrivals never free space, so a client that found the port full
     * may sleep until then. PortSlot::bind registers its owner.
     */
    virtual void
    addClient(Component &client)
    {
        clients_.push_back(&client);
    }

    virtual void request(const Req &req) = 0;

    /** An entry left: wake every client. */
    void
    departed() const
    {
        for (Component *c : clients_)
            c->departure();
    }

  protected:
    std::vector<Component *> clients_;
};

/**
 * Residency snoops and invalidations against a cache level. The LLC is
 * the inclusive root, so snooping it answers "cached anywhere?" for
 * DX100's H bit (§3.6).
 */
class SnoopPort
{
  public:
    virtual ~SnoopPort() = default;

    /** Line present (or being filled) at this level? */
    virtual bool containsLine(Addr line) const = 0;

    /** Drop a line if present; returns true if it was dirty. */
    virtual bool invalidateLine(Addr line) = 0;
};

/**
 * A named request-port binding owned by the client component.
 * bind() must be called at most once — double wiring is a topology
 * bug — and Component::portRefs() reports (name, bound) so the
 * connectivity audit can prove every slot was wired exactly once.
 */
template <typename Req>
class PortSlot
{
  public:
    explicit PortSlot(const char *name) : name_(name) {}

    /** Bind to @p port; @p owner is woken when an entry leaves it. */
    void
    bind(RequestPort<Req> &port, Component &owner)
    {
        dx_assert(port_ == nullptr,
                  "port slot ", name_, " already bound");
        port_ = &port;
        port.addClient(owner);
    }

    bool bound() const { return port_ != nullptr; }
    const char *name() const { return name_; }

    /** Raw access; never null-checked on the hot path. */
    RequestPort<Req> *operator->() const { return port_; }
    RequestPort<Req> *get() const { return port_; }
    explicit operator bool() const { return port_ != nullptr; }

  private:
    const char *name_;
    RequestPort<Req> *port_ = nullptr;
};

} // namespace dx

#endif // DX_SIM_PORT_HH
