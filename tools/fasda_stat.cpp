// fasda_stat — admin scraper for a running fasda_serve daemon
// (DESIGN.md §17).
//
// Dials the daemon and issues a kStats request, printing the wall-clock
// observability body to stdout (or --out): JSON by default, the Prometheus
// text exposition with --format prometheus. --ping instead prints the
// enriched kPong health body (queue depth, workers, journal/fsync state,
// recovery counters, uptime), so CI can assert a live daemon scrapes.
//
// Exit codes:
//   0  scraped
//   1  usage error: an unread flag, a positional argument, a malformed
//      number, a missing --port or one outside 1-65535, a bad --format
//      (one line "fasda_stat: message" on stderr)
//   2  runtime failure: cannot connect, a protocol failure, cannot write
//      --out
//
// Usage:
//   fasda_stat [--host 127.0.0.1] --port P [--format json|prometheus]
//              [--ping] [--out PATH] [--retries N]

#include <cstdio>
#include <stdexcept>
#include <string>

#include "fasda/serve/client.hpp"
#include "fasda/util/cli.hpp"

using namespace fasda;

namespace {

int stat_main(const util::Cli& cli) {
  if (cli.has_switch("help")) {
    std::printf(
        "usage: fasda_stat [--host ADDR] --port P\n"
        "                  [--format json|prometheus] [--ping]\n"
        "                  [--out PATH] [--retries N]\n");
    return 0;
  }
  const std::string host = cli.get_or("host", "127.0.0.1");
  const std::uint16_t port = cli.get_port("port", 1);
  const std::string format = cli.get_or("format", "json");
  if (format != "json" && format != "prometheus") {
    throw std::invalid_argument("--format must be json|prometheus, got " +
                                format);
  }
  const std::string out_path = cli.get_or("out", "");

  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(cli.get_or("retries", 5L));

  std::string body;
  try {
    serve::Client client(host, port, policy);
    body = cli.has_switch("ping") ? client.ping() : client.stats(format);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fasda_stat: %s\n", e.what());
    return 2;
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fasda_stat: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    if (body.empty() || body.back() != '\n') std::fputc('\n', f);
    std::fclose(f);
    return 0;
  }
  std::fwrite(body.data(), 1, body.size(), stdout);
  if (body.empty() || body.back() != '\n') std::fputc('\n', stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::Cli::run(
      argc, argv, "fasda_stat",
      {"help", "host", "port", "format", "ping", "out", "retries"},
      stat_main);
}
