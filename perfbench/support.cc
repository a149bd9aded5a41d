#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <thread>

#include "perfbench.h"
#include "setsystem/binary_io.h"
#include "setsystem/stream_generators.h"
#include "util/cover_kernels.h"

namespace perfbench {

using streamcover::BinarySetWriter;
using streamcover::PlantedOptions;
using streamcover::StreamGenResult;

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  // Why these four (measured on a 4-core host): iter_disk spends its time
  // in the guesses' consumers, projection stores and per-guess offline
  // greedy (decode ~7%); scan_disk is six pipelined-decode scans with a
  // light consumer; greedi_disk is one serial scan plus the shard
  // kernels and the merge; serve_disk is the only one that runs the
  // queue, the JSON protocol and concurrent forked scans. Each keeps at
  // most 3 runnable threads on the 4 cores.
  std::vector<Workload> table = {
      {"iter_disk", {100000, 500000}, "iter", 2, 1, 1, false},
      {"scan_disk", {100000, 1000000}, "progressive_greedy", 1, 2, 1, false},
      {"greedi_disk", {100000, 1000000}, "sharded_greedi", 2, 1, 2, false},
      {"serve_disk", {10000, 20000}, "iter", 1, 1, 1, true},
  };
  for (Workload& workload : table) {
    if (workload.name != name) continue;
    if (smoke) {
      workload.instance.n = std::max<uint32_t>(workload.instance.n / 25, 400);
      workload.instance.m = std::max<uint32_t>(workload.instance.m / 100, 500);
      workload.instance.k = 10;
    }
    return workload;
  }
  return std::nullopt;
}

double CoverRatioBound(const std::string& solver, uint32_t n) {
  const double greedy =
      std::log(static_cast<double>(std::max<uint32_t>(n, 2))) + 1.0;
  return solver == "iter" ? greedy / RunOptions{}.delta : greedy;
}

// --------------------------------------------------------------------------

std::unique_ptr<InstanceFile> InstanceFile::Create(std::string* error) {
  std::unique_ptr<InstanceFile> file(new InstanceFile());
  file->fd_ = memfd_create("perfbench-instance", MFD_CLOEXEC);
  if (file->fd_ < 0) {
    *error = std::string("memfd_create failed: ") + std::strerror(errno);
    return nullptr;
  }
  file->path_ = "/proc/self/fd/" + std::to_string(file->fd_);
  return file;
}

InstanceFile::~InstanceFile() { ::close(fd_); }

std::string InstanceFile::fs_type() const {
  struct statfs info {};
  if (fstatfs(fd_, &info) != 0) return "unknown";
  if (static_cast<uint64_t>(info.f_type) == TMPFS_MAGIC) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(info.f_type));
  return buf;
}

uint64_t InstanceFile::bytes() const {
  struct stat info {};
  if (fstat(fd_, &info) != 0) return 0;
  return static_cast<uint64_t>(info.st_size);
}

std::optional<Prepared> Prepare(const PlantedSpec& spec, uint64_t seed,
                                Tracer& tracer, std::string* error) {
  Prepared prepared;
  prepared.file = InstanceFile::Create(error);
  if (prepared.file == nullptr) return std::nullopt;

  Span generate(tracer, "StreamPlanted->BinarySetWriter");
  std::optional<BinarySetWriter> writer =
      BinarySetWriter::Create(prepared.file->path(), spec.n, error);
  if (!writer.has_value()) return std::nullopt;
  PlantedOptions options;
  options.num_elements = spec.n;
  options.num_sets = spec.m;
  options.cover_size = spec.k;
  options.noise_min_size = 1;
  options.noise_max_size = spec.noise_max;
  std::optional<StreamGenResult> generated = streamcover::StreamPlanted(
      options, seed,
      [&](std::span<const uint32_t> elements) {
        return writer->AddSet(elements);
      },
      error);
  if (!generated.has_value() || !writer->Finish(error)) return std::nullopt;
  prepared.nnz = writer->nnz();
  prepared.generate_s = generate.End();

  Span open(tracer, "Instance::FromFile");
  prepared.instance = Instance::FromFile(prepared.file->path(), error);
  if (!prepared.instance.has_value()) return std::nullopt;
  prepared.open_s = open.End();
  return prepared;
}

// --------------------------------------------------------------------------

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

uint64_t PeakRssBytes(bool use_rusage) {
  if (!use_rusage) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
      }
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// --------------------------------------------------------------------------

JsonValue HostStamp(const std::string& source_id) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int nproc = sched_getaffinity(0, sizeof(affinity), &affinity) == 0
                        ? CPU_COUNT(&affinity)
                        : static_cast<int>(std::thread::hardware_concurrency());
  JsonValue host = JsonValue::Object();
  host.Set("cpu_model", cpu);
  host.Set("nproc", static_cast<int64_t>(nproc));
  host.Set("kernel_isa",
           streamcover::KernelIsaName(streamcover::DetectKernelIsa()));
#if defined(__clang__)
  host.Set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.Set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.Set("compiler", "unknown");
#endif
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
  host.Set("source", source_id);
  return host;
}

// --------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// --------------------------------------------------------------------------

namespace {
thread_local std::vector<uint64_t> open_spans;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint64_t Tracer::CurrentSpan() {
  return open_spans.empty() ? 0 : open_spans.back();
}

uint64_t Tracer::NextId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, uint64_t id, uint64_t parent,
                    uint64_t run) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  span.id = id;
  span.parent = parent;
  span.run = run;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  JsonValue events = JsonValue::Array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> threads;
    for (const SpanRecord& span : spans_) {
      auto it = std::find(threads.begin(), threads.end(), span.thread);
      const uint64_t tid = static_cast<uint64_t>(it - threads.begin()) + 1;
      if (it == threads.end()) threads.push_back(span.thread);
      JsonValue event = JsonValue::Object();
      event.Set("name", span.name);
      event.Set("ph", "X");
      event.Set("ts", span.start_us);
      event.Set("dur", span.dur_us);
      event.Set("pid", static_cast<uint64_t>(1));
      event.Set("tid", tid);
      JsonValue args = JsonValue::Object();
      args.Set("id", span.id);
      args.Set("parent", span.parent);
      args.Set("run", span.run);
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.Dump(0) << "\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer& tracer, std::string name, uint64_t parent, uint64_t run)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent != 0 ? parent : Tracer::CurrentSpan()),
      run_(run),
      id_(tracer.NextId()) {
  if (id_ != 0) open_spans.push_back(id_);
  start_ = Tracer::Clock::now();
}

Span::~Span() { End(); }

double Span::End() {
  if (seconds_ < 0) {
    const Tracer::Clock::time_point end = Tracer::Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    if (id_ != 0 && !open_spans.empty() && open_spans.back() == id_) {
      open_spans.pop_back();
    }
    tracer_.Record(name_, start_, end, id_, parent_, run_);
  }
  return seconds_;
}

}  // namespace perfbench
