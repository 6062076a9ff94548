#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hpp"
#include "net/channel.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace skv::nic {

/// Where the NIC switch steers a flow (paper Fig. 2): straight through to
/// the host PCIe function, or up to the ARM cores on the SmartNIC.
enum class SteerTarget : std::uint8_t { kHost, kNicCores };

/// Physical parameters of the simulated BlueField-2 class device.
struct SmartNicParams {
    /// ARM A72 cores available to offloaded services.
    int arm_cores = 8;
    /// Slowdown of one ARM core relative to the host Xeon for this workload
    /// (cost scaling; paper §II-C / [22]: "much weaker").
    double core_slowdown = 2.5;
    /// On-board DDR available to Nic-KV (16 GB on the paper's MBF2H516A).
    std::size_t dram_bytes = 16ULL * 1024 * 1024 * 1024;
    /// Internal-path / stack-overhead parameters for the fabric companion
    /// endpoint.
    net::CompanionParams companion;
};

/// An off-path multi-core SoC SmartNIC installed behind one host port.
/// Owns the companion fabric endpoint (the NIC is "just like a separated
/// endpoint in the network", §II-A2), the ARM cores, the on-board memory
/// budget, and the NIC-switch steering table.
class SmartNic {
public:
    SmartNic(sim::Simulation& sim, net::Fabric& fabric, net::EndpointId host,
             const std::string& name, SmartNicParams params = {});

    [[nodiscard]] net::EndpointId endpoint() const { return endpoint_; }
    [[nodiscard]] net::EndpointId host_endpoint() const { return host_; }

    [[nodiscard]] int core_count() const { return static_cast<int>(cores_.size()); }
    [[nodiscard]] cpu::Core& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }

    /// NodeRef for transports running on ARM core `i`.
    [[nodiscard]] net::NodeRef node(int i = 0) {
        return net::NodeRef{endpoint_, cores_.at(static_cast<std::size_t>(i)).get()};
    }

    // --- on-board memory budget -------------------------------------------
    /// Try to reserve on-board DRAM; fails (returns false) when the NIC is
    /// out of memory — the reason SKV keeps the keyspace on the host.
    [[nodiscard]] bool reserve_memory(std::size_t bytes);
    void release_memory(std::size_t bytes);
    [[nodiscard]] std::size_t memory_used() const { return mem_used_; }
    [[nodiscard]] std::size_t memory_capacity() const { return params_.dram_bytes; }

    // --- NIC switch steering table -----------------------------------------
    /// Steer traffic addressed to `service_port` to the host or the ARM
    /// cores. Unlisted ports default to the host, so ordinary flows bypass
    /// the ARM cores entirely (the off-path property).
    void steer(std::uint16_t service_port, SteerTarget target);
    [[nodiscard]] SteerTarget steering(std::uint16_t service_port) const;
    [[nodiscard]] std::size_t steering_rules() const { return steering_.size(); }

    /// The fabric endpoint a flow to `service_port` should address.
    [[nodiscard]] net::EndpointId resolve(std::uint16_t service_port) const {
        return steering(service_port) == SteerTarget::kNicCores ? endpoint_ : host_;
    }

    [[nodiscard]] const SmartNicParams& params() const { return params_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] obs::Registry& obs() { return obs_; }

private:
    net::EndpointId host_;
    net::EndpointId endpoint_;
    std::string name_;
    SmartNicParams params_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::size_t mem_used_ = 0;
    std::map<std::uint16_t, SteerTarget> steering_;

    obs::Registry obs_;
    obs::Counter c_mem_rejects_ = obs_.counter_handle("mem_reserve_rejects");
};

} // namespace skv::nic
