#include "actionlog/io.h"

#include <fstream>
#include <sstream>

namespace psi {

Status WriteActionLogText(const ActionLog& log, std::ostream* out) {
  *out << "# psi action log: user action time\n";
  for (const auto& r : log.records()) {
    *out << r.user << " " << r.action << " " << r.time << "\n";
  }
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<ActionLog> ReadActionLogText(std::istream* in) {
  ActionLog log;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t user = 0, action = 0, time = 0;
    if (!(fields >> user >> action >> time)) {
      return Status::SerializationError("bad record at line " +
                                        std::to_string(line_no));
    }
    // UINT32_MAX itself is out too: MaxUserId()/MaxActionId() report the
    // largest id + 1 in 32 bits, which would wrap to 0.
    if (user >= UINT32_MAX || action >= UINT32_MAX) {
      return Status::OutOfRange("id exceeds 2^32 - 2 at line " +
                                std::to_string(line_no));
    }
    log.Add(ActionRecord{static_cast<NodeId>(user),
                         static_cast<ActionId>(action), time});
  }
  return log;
}

Status SaveActionLog(const ActionLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  return WriteActionLogText(log, &out);
}

Result<ActionLog> LoadActionLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  return ReadActionLogText(&in);
}

}  // namespace psi
