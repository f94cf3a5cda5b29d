#pragma once

// [server] INI section <-> ServerConfig. The per-tenant knobs are comma
// lists aligned by position (tenant 0 first):
//
//   [server]
//   port = 7071            ; 0 = ephemeral
//   max_pipeline = 64      ; frames serviced per connection per batch
//   cache_items = 4096     ; server-wide budget, split across tenants
//   cache_shards = 0       ; per-tenant shard count (0 = auto, at most
//                          ; the tenant's slice; more is rejected)
//   lockfree_reads = true
//   tenants = 3
//   capacity_pct = 50,30,20   ; default: even split of 100%
//   imp_ratio = 0.9,0.8,0.9   ; default: 0.9 each
//
// serialize -> parse round-trips exactly (config_test pins this).

#include <string>

#include "server/server.hpp"
#include "util/config.hpp"

namespace spider::server {

/// Builds a ServerConfig from the `server.*` keys of a parsed config.
/// Missing keys use the defaults above; inconsistent list lengths or a
/// capacity_pct sum > 100 throw std::invalid_argument.
[[nodiscard]] ServerConfig server_config_from(const util::Config& config);

/// Emits the `[server]` section (every key explicit) such that
/// server_config_from(parse(serialize(c))) == c.
[[nodiscard]] std::string serialize_server_config(const ServerConfig& config);

}  // namespace spider::server
