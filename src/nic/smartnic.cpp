#include "nic/smartnic.hpp"
#include "sim/check.hpp"


namespace skv::nic {

SmartNic::SmartNic(sim::Simulation& sim, net::Fabric& fabric,
                   net::EndpointId host, const std::string& name,
                   SmartNicParams params)
    : host_(host), name_(name), params_(params),
      c_mem_rejects_(obs_.counter_handle("mem_reserve_rejects")),
      g_mem_used_(obs_.gauge_handle("mem_used_bytes")),
      g_steering_rules_(obs_.gauge_handle("steering_rules")) {
    SKV_CHECK(params_.arm_cores > 0);
    endpoint_ = fabric.add_companion(host, name, params_.companion);
    cores_.reserve(static_cast<std::size_t>(params_.arm_cores));
    for (int i = 0; i < params_.arm_cores; ++i) {
        cores_.push_back(std::make_unique<cpu::Core>(
            sim, name + "/arm" + std::to_string(i), params_.core_slowdown));
    }
}

bool SmartNic::reserve_memory(std::size_t bytes) {
    if (mem_used_ + bytes > params_.dram_bytes) {
        c_mem_rejects_.incr();
        return false;
    }
    mem_used_ += bytes;
    g_mem_used_.set(static_cast<std::int64_t>(mem_used_));
    return true;
}

void SmartNic::release_memory(std::size_t bytes) {
    SKV_CHECK(bytes <= mem_used_);
    mem_used_ -= bytes;
    g_mem_used_.set(static_cast<std::int64_t>(mem_used_));
}

void SmartNic::steer(std::uint16_t service_port, SteerTarget target) {
    if (target == SteerTarget::kHost) {
        steering_.erase(service_port);
    } else {
        steering_[service_port] = target;
    }
    g_steering_rules_.set(static_cast<std::int64_t>(steering_.size()));
}

SteerTarget SmartNic::steering(std::uint16_t service_port) const {
    auto it = steering_.find(service_port);
    return it == steering_.end() ? SteerTarget::kHost : it->second;
}

} // namespace skv::nic
