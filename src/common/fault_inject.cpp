#include "plrupart/common/fault_inject.hpp"

#include <cstdlib>
#include <sstream>
#include <string_view>

namespace plrupart {
namespace {

[[noreturn]] void spec_error(const std::string& text, const std::string& why) {
  throw InvariantError("bad --fault-inject spec \"" + text + "\": " + why +
                       " (expected comma-separated <site>:<probability> with site in "
                       "{read, write} and probability in [0, 1])");
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::array<bool, 2> seen{};
  std::istringstream in(text);
  std::string item;
  bool got_any = false;
  while (std::getline(in, item, ',')) {
    got_any = true;
    const auto colon = item.find(':');
    if (colon == std::string::npos) spec_error(text, "item \"" + item + "\" has no ':'");
    const std::string_view site_name(item.data(), colon);
    FaultSite site{};
    if (site_name == "read") {
      site = FaultSite::kRead;
    } else if (site_name == "write") {
      site = FaultSite::kWrite;
    } else {
      spec_error(text, "unknown site \"" + std::string(site_name) + "\"");
    }
    const auto idx = static_cast<std::size_t>(site);
    if (seen[idx]) spec_error(text, "site \"" + std::string(site_name) + "\" repeated");
    seen[idx] = true;

    const std::string prob_text = item.substr(colon + 1);
    char* end = nullptr;
    const double p = std::strtod(prob_text.c_str(), &end);
    if (prob_text.empty() || end != prob_text.c_str() + prob_text.size())
      spec_error(text, "probability \"" + prob_text + "\" is not a number");
    if (!(p >= 0.0 && p <= 1.0))
      spec_error(text, "probability " + prob_text + " outside [0, 1]");
    spec.probability[idx] = p;
  }
  if (!got_any) spec_error(text, "empty spec");
  return spec;
}

void FaultPlan::maybe_throw(FaultSite site, std::uint64_t counter, std::uint64_t lane,
                            const std::string& context) const {
  if (!should_fire(site, counter, lane)) return;
  std::ostringstream os;
  os << "injected " << fault_site_name(site) << " fault at " << context << " (opportunity "
     << counter << ", lane " << lane << ", plan seed " << seed_ << ')';
  throw InjectedFault(os.str());
}

}  // namespace plrupart
