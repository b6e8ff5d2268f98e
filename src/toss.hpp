// TOSS public umbrella header — the one include for clients.
//
// Examples, benches and downstream users include only this header; deep
// internal headers (core/, vmm/, mem/, ...) are implementation detail and
// may be reorganized between releases (toss_lint's deep-include rule
// enforces this for the in-tree clients). The stable surface is:
//
//   ServerlessPlatform / FunctionRegistration / PolicyKind   single host
//   PlatformEngine / EngineOptions / EngineReport            fleet engine
//   ClusterEngine / ClusterOptions / ClusterReport           multi-host fleet
//   ArbiterOptions / ArbiterReport / ShedEvent               overload control
//   TossOptions / TossFunction / TossPhase                   the TOSS core
//   InvocationOutcome / FunctionStats / Result / Error       call results
//   FunctionReport / LatencyHistogram / MetricsSnapshot      observability
//   RequestGenerator / FunctionRegistry / workloads::*       workloads
//   LaneExecutor / OnlineStats / AsciiTable / Rng            utilities
//
// plus the analysis entry points the explorer tools drive directly
// (analyze_pattern, choose_placement, regionize_and_merge, DamonMonitor,
// tier_snapshot, run_concurrent).
#pragma once

#include "platform/arbiter.hpp"
#include "platform/cluster.hpp"
#include "platform/concurrency.hpp"
#include "platform/engine.hpp"
#include "platform/errors.hpp"
#include "platform/invoker.hpp"
#include "platform/keepalive.hpp"
#include "platform/metrics.hpp"
#include "platform/platform.hpp"
#include "platform/prewarm.hpp"
#include "platform/pricing.hpp"
#include "platform/recovery.hpp"
#include "platform/request_gen.hpp"

#include "core/merge.hpp"
#include "core/optimizer.hpp"
#include "core/tierer.hpp"
#include "core/toss.hpp"

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"

#include "damon/monitor.hpp"

#include "workloads/functions.hpp"
#include "workloads/registry.hpp"

#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
