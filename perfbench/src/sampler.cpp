#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kMaxSamples = 1 << 16;
std::atomic<bool> g_in_node{false};
std::atomic<std::size_t> g_count{0};
std::uintptr_t g_pcs[kMaxSamples];
struct sigaction g_previous{};

void on_sample(int, siginfo_t*, void* raw) {
  if (!g_in_node.load(std::memory_order_relaxed)) return;
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const auto* uc = static_cast<const ucontext_t*>(raw);
#if defined(__x86_64__)
  g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  g_pcs[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  g_pcs[i] = 0;
#endif
}

/// A wall-clock timer: CPU-time timers only fire at scheduler-tick
/// resolution, far too coarse here. The sampled run is single-threaded and
/// CPU-bound, so wall time is its CPU time.
void arm(unsigned interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = static_cast<suseconds_t>(interval_us);
  timer.it_value.tv_usec = static_cast<suseconds_t>(interval_us);
  setitimer(ITIMER_REAL, &timer, nullptr);
}

struct FuncSymbol {
  std::uintptr_t addr = 0;
  std::uintptr_t size = 0;
  std::uint32_t name = 0;  ///< offset into the string table
};

/// Function symbols of this executable, from its ELF .symtab.
struct SymbolTable {
  std::vector<char> image;
  std::vector<FuncSymbol> funcs;
  const char* strtab = nullptr;
  std::uintptr_t bias = 0;

  bool load() {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    if (!in) return false;
    image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    if (image.size() < sizeof(Elf64_Ehdr)) return false;
    Elf64_Ehdr eh;
    std::memcpy(&eh, image.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64) {
      return false;
    }
    if (eh.e_shoff + static_cast<std::size_t>(eh.e_shnum) * sizeof(Elf64_Shdr) > image.size()) {
      return false;
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    std::memcpy(sections.data(), image.data() + eh.e_shoff, eh.e_shnum * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr& sh : sections) {
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
      const Elf64_Shdr& strs = sections[sh.sh_link];
      if (sh.sh_offset + sh.sh_size > image.size() ||
          strs.sh_offset + strs.sh_size > image.size()) {
        return false;
      }
      strtab = image.data() + strs.sh_offset;
      const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
      for (std::size_t i = 0; i < count; ++i) {
        Elf64_Sym sym;
        std::memcpy(&sym, image.data() + sh.sh_offset + i * sizeof(Elf64_Sym), sizeof sym);
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 || sym.st_value == 0 ||
            sym.st_name >= strs.sh_size) {
          continue;
        }
        funcs.push_back({sym.st_value, sym.st_size, sym.st_name});
      }
    }
    std::sort(funcs.begin(), funcs.end(),
              [](const FuncSymbol& a, const FuncSymbol& b) { return a.addr < b.addr; });
    // The first object dl_iterate_phdr reports is the executable itself.
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;
        },
        &bias);
    return !funcs.empty();
  }

  /// Index into funcs of the function containing `pc`, or -1.
  [[nodiscard]] long find(std::uintptr_t pc) const {
    const std::uintptr_t rel = pc - bias;
    auto it = std::upper_bound(funcs.begin(), funcs.end(), rel,
                               [](std::uintptr_t v, const FuncSymbol& f) { return v < f.addr; });
    if (it == funcs.begin()) return -1;
    --it;
    if (rel >= it->addr + it->size) return -1;
    return it - funcs.begin();
  }
};

enum class Owner : std::uint8_t { kController, kDisk, kOther };

/// The node component a (demangled) function name belongs to: whichever of
/// the controller or disk namespaces appears first, so lambdas and template
/// instantiations count for the code they were written in. The controller's
/// block-device adapter belongs to the controller.
Owner classify(const char* mangled) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  const std::string name = status == 0 && demangled != nullptr ? demangled : mangled;
  std::free(demangled);
  const std::size_t ctrl = std::min(name.find("sst::ctrl::"),
                                    name.find("sst::blockdev::SimBlockDevice"));
  const std::size_t disk = name.find("sst::disk::");
  if (ctrl == std::string::npos && disk == std::string::npos) return Owner::kOther;
  return ctrl < disk ? Owner::kController : Owner::kDisk;
}

}  // namespace

NodeSampler::NodeSampler(unsigned interval_us) {
  g_count.store(0);
  g_in_node.store(false);
  struct sigaction action{};
  action.sa_sigaction = &on_sample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, &g_previous);
  arm(interval_us);
}

NodeSampler::~NodeSampler() {
  if (!finished_) (void)finish();
}

void NodeSampler::set_in_node(bool in_node) {
  g_in_node.store(in_node, std::memory_order_relaxed);
}

NodeSplit NodeSampler::finish() {
  finished_ = true;
  arm(0);
  sigaction(SIGALRM, &g_previous, nullptr);
  g_in_node.store(false);
  const std::size_t n = std::min(g_count.load(), kMaxSamples);

  NodeSplit split;
  SymbolTable table;
  if (!table.load()) {
    split.other = n;
    return split;
  }
  std::vector<std::int8_t> owner_of(table.funcs.size(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    const long f = table.find(g_pcs[i]);
    Owner owner = Owner::kOther;
    if (f >= 0) {
      if (owner_of[f] < 0) {
        owner_of[f] = static_cast<std::int8_t>(classify(table.strtab + table.funcs[f].name));
      }
      owner = static_cast<Owner>(owner_of[f]);
    }
    switch (owner) {
      case Owner::kController: ++split.controller; break;
      case Owner::kDisk: ++split.disk; break;
      case Owner::kOther: ++split.other; break;
    }
  }
  return split;
}

}  // namespace perfbench
