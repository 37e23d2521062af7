#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace bsa::serve {
namespace {

TEST(ServeProtocol, DefaultsMatchBsaToolSingleRun) {
  const Request req = parse_request("{\"op\":\"schedule\"}");
  EXPECT_EQ(req.workload, "random");
  EXPECT_EQ(req.algo, "bsa");
  EXPECT_EQ(req.topology, "ring");
  EXPECT_EQ(req.size, 100);
  EXPECT_EQ(req.gran, 1.0);
  EXPECT_EQ(req.procs, 8);
  EXPECT_EQ(req.het, 1);
  EXPECT_EQ(req.link_het, 1);
  EXPECT_FALSE(req.per_pair);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_TRUE(req.use_cache);
  EXPECT_FALSE(req.validate);
}

TEST(ServeProtocol, RequestJsonRoundTrips) {
  Request req;
  req.id = 42;
  req.workload = "fft:points=64";
  req.algo = "dls";
  req.topology = "hypercube";
  req.size = 30;
  req.gran = 2.5;
  req.procs = 16;
  req.per_pair = true;
  req.seed = 7;
  req.use_cache = false;
  req.validate = true;
  const Request back = parse_request(request_to_json(req));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.workload, req.workload);
  EXPECT_EQ(back.algo, req.algo);
  EXPECT_EQ(back.topology, req.topology);
  EXPECT_EQ(back.size, req.size);
  EXPECT_EQ(back.gran, req.gran);
  EXPECT_EQ(back.procs, req.procs);
  EXPECT_EQ(back.per_pair, req.per_pair);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.use_cache, req.use_cache);
  EXPECT_EQ(back.validate, req.validate);
}

TEST(ServeProtocol, MalformedJsonThrows) {
  EXPECT_THROW(parse_request("not json at all"), PreconditionError);
  EXPECT_THROW(parse_request("{\"op\":\"schedule\""), PreconditionError);
  EXPECT_THROW(parse_request(""), PreconditionError);
}

TEST(ServeProtocol, UnknownKeysRejectedListingAccepted) {
  try {
    (void)parse_request("{\"op\":\"schedule\",\"workloda\":\"fft\"}");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workloda"), std::string::npos) << msg;
    EXPECT_NE(msg.find("workload"), std::string::npos) << msg;
    EXPECT_NE(msg.find("topology"), std::string::npos) << msg;
  }
}

TEST(ServeProtocol, UnknownOpRejectedListingOps) {
  try {
    (void)parse_request("{\"op\":\"frobnicate\"}");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("frobnicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("schedule, ping, stats, shutdown"), std::string::npos)
        << msg;
  }
}

TEST(ServeProtocol, NumericFieldValidation) {
  EXPECT_THROW(parse_request("{\"size\":0}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"size\":2.5}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"gran\":0}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"gran\":1e-17}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"procs\":-1}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"seed\":-3}"), PreconditionError);
  EXPECT_THROW(parse_request("{\"per_pair\":\"yes\"}"), PreconditionError);
}

TEST(ServeProtocol, CanonicalizeNormalisesSpecsAndBuildsExactKey) {
  Request a;
  a.workload = "FFT:points=64";  // registry canonicalises case
  a.algo = "bsa";
  a.topology = "hypercube";
  a.seed = 5;
  const std::string key_a = canonicalize(a);
  EXPECT_EQ(a.workload, "fft:points=64");

  // A differently-spelled but equivalent request collides to the same key.
  Request b = parse_request(
      "{\"workload\":\"fft:points=64\",\"topology\":\"HYPERCUBE\","
      "\"seed\":5,\"gran\":1.0}");
  EXPECT_EQ(canonicalize(b), key_a);

  // Every result-affecting field separates the key — including validate,
  // which changes the payload bytes.
  Request c = a;
  c.seed = 6;
  EXPECT_NE(canonicalize(c), key_a);
  Request d = a;
  d.validate = true;
  EXPECT_NE(canonicalize(d), key_a);
  // ...but the envelope-only id does not.
  Request e = a;
  e.id = 999;
  EXPECT_EQ(canonicalize(e), key_a);
}

TEST(ServeProtocol, CanonicalizeUnknownNamesListChoices) {
  Request bad_algo;
  bad_algo.algo = "nosuch";
  try {
    (void)canonicalize(bad_algo);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("nosuch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bsa"), std::string::npos) << msg;
  }
  Request bad_topo;
  bad_topo.topology = "torus";
  try {
    (void)canonicalize(bad_topo);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("torus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hypercube"), std::string::npos) << msg;
  }
}

TEST(ServeProtocol, CanonicalizeRejectsTopologiesThatCannotBeBuilt) {
  // Checked before the request is queued, so none of these reaches a
  // worker.
  const std::vector<std::pair<std::string, int>> cases{
      {"hypercube", 2000000000}, {"hypercube", 2147483647},
      {"hypercube", 12},         {"ring", 1},
      {"random", 2},             {"star", 1},
      {"clique", 1},             {"linear", 1}};
  for (const auto& [kind, procs] : cases) {
    Request req;
    req.topology = kind;
    req.procs = procs;
    try {
      (void)canonicalize(req);
      FAIL() << "expected PreconditionError for " << kind << " " << procs;
    } catch (const PreconditionError& ex) {
      const std::string msg = ex.what();
      EXPECT_NE(msg.find(kind), std::string::npos) << msg;
    }
  }
  for (const std::string kind : {"linear", "star", "mesh", "random"}) {
    Request req;
    req.topology = kind;
    req.procs = 3;
    EXPECT_NO_THROW((void)canonicalize(req)) << kind;
  }
}

TEST(ServeProtocol, CanonicalizeRejectsEcubeOnTopologiesItCannotRoute) {
  // BSA's E-cube routes need hypercube vertex addressing; the request is
  // a bad one whatever the topology is called, and is rejected before it
  // is queued.
  for (const auto& [kind, procs] : std::vector<std::pair<std::string, int>>{
           {"ring", 8}, {"mesh", 16}, {"star", 4}, {"random", 8}}) {
    Request req;
    req.algo = "BSA:route=ecube";
    req.topology = kind;
    req.procs = procs;
    try {
      (void)canonicalize(req);
      FAIL() << "expected PreconditionError for " << kind << " " << procs;
    } catch (const PreconditionError& ex) {
      EXPECT_NE(std::string(ex.what()).find("route=ecube"), std::string::npos)
          << ex.what();
    }
  }
  // Any topology whose links include the hypercube's routes is fine.
  for (const auto& [kind, procs] : std::vector<std::pair<std::string, int>>{
           {"hypercube", 16}, {"clique", 4}, {"mesh", 4}}) {
    Request req;
    req.algo = "bsa:route=ecube";
    req.topology = kind;
    req.procs = procs;
    EXPECT_NO_THROW((void)canonicalize(req)) << kind << " " << procs;
  }
  // Other routings and schedulers take any topology.
  Request req;
  req.algo = "bsa:route=static";
  req.topology = "ring";
  EXPECT_NO_THROW((void)canonicalize(req));
}

TEST(ServeProtocol, RequestIdSurvivesARejectedLine) {
  EXPECT_EQ(request_id("{\"op\":\"schedule\",\"id\":12,\"gran\":1e-17}"),
            12u);
  EXPECT_EQ(request_id("{\"id\":5,\"siez\":3}"), 5u);
  EXPECT_EQ(request_id("{\"id\":-1}"), 0u);
  EXPECT_EQ(request_id("{\"id\":\"x\"}"), 0u);
  EXPECT_EQ(request_id("not json"), 0u);
  EXPECT_EQ(request_id("{\"op\":\"ping\"}"), 0u);
  // Past the uint64 range: rejected, not converted.
  EXPECT_EQ(request_id("{\"id\":1e30}"), 0u);
  EXPECT_THROW((void)parse_request("{\"seed\":18446744073709551616}"),
               PreconditionError);
}

TEST(ServeProtocol, ResponseFormatParseRoundTrip) {
  const std::string line = format_response(
      7, true, 123.5, "\"makespan\":440,\"schedule\":\"task 0 1 0 10\"");
  const Response resp = parse_response(line);
  EXPECT_EQ(resp.id, 7u);
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.cached);
  EXPECT_DOUBLE_EQ(resp.server_us, 123.5);
  EXPECT_TRUE(resp.error.empty());
  EXPECT_DOUBLE_EQ(resp.makespan(), 440);
  EXPECT_EQ(resp.schedule_text(), "task 0 1 0 10");
  // Envelope fields are not part of the payload map.
  EXPECT_EQ(resp.payload.count("id"), 0u);
  EXPECT_EQ(resp.payload.count("ok"), 0u);
}

TEST(ServeProtocol, ErrorResponseRoundTrip) {
  const Response resp =
      parse_response(format_error(3, "unknown algorithm \"x\""));
  EXPECT_EQ(resp.id, 3u);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, "unknown algorithm \"x\"");
  // The legacy 2-arg form defaults to the `internal` code.
  EXPECT_EQ(resp.code, error_code::kInternal);
  EXPECT_EQ(resp.retry_after_ms, 0);
}

TEST(ServeProtocol, TypedErrorRoundTripCarriesCodeAndHint) {
  const Response shed = parse_response(
      format_error(9, error_code::kOverloaded, "server overloaded", 25));
  EXPECT_EQ(shed.id, 9u);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, error_code::kOverloaded);
  EXPECT_EQ(shed.error, "server overloaded");
  EXPECT_EQ(shed.retry_after_ms, 25);

  // retry_after_ms is only emitted when it carries information.
  const std::string bad =
      format_error(4, error_code::kBadRequest, "unknown key \"siez\"");
  EXPECT_EQ(bad.find("retry_after_ms"), std::string::npos);
  const Response resp = parse_response(bad);
  EXPECT_EQ(resp.code, error_code::kBadRequest);
  EXPECT_EQ(resp.retry_after_ms, 0);
}

}  // namespace
}  // namespace bsa::serve
