#include "common/logging.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

#include "common/string_util.h"

namespace silofuse {
namespace {

LogLevel& MutableLevel() {
  static LogLevel level = InitialLogLevel(std::getenv("SILOFUSE_QUIET"),
                                          std::getenv("SILOFUSE_VERBOSE"));
  return level;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

// Default sink: the classic "[I file:line] msg" line, written to cerr/clog
// as ONE string so concurrent loggers (e.g. runtime pool workers) cannot
// interleave fragments of two lines.
class StderrLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override {
    std::ostringstream line;
    line << "[" << LevelTag(record.level) << " " << record.file << ":"
         << record.line << "] " << record.message << "\n";
    std::ostream& out =
        (record.level >= LogLevel::kWarning) ? std::cerr : std::clog;
    out << line.str();
    out.flush();
  }
};

std::string JsonEscapeMessage(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::mutex& LogMutex() {
  static std::mutex* mu = new std::mutex();  // leaky: usable during exit
  return *mu;
}

// Active sink, guarded by LogMutex(). The default is constructed lazily and
// honors SILOFUSE_LOG_JSON=<path>.
LogSink* DefaultSink() {
  static LogSink* sink = []() -> LogSink* {
    if (const char* path = std::getenv("SILOFUSE_LOG_JSON");
        path != nullptr && *path != '\0') {
      auto* json = new JsonLinesLogSink(path);
      if (json->ok()) return json;
      delete json;
    }
    return new StderrLogSink();
  }();
  return sink;
}

LogSink*& ActiveSink() {
  static LogSink* sink = nullptr;  // nullptr = default sink
  return sink;
}

// EnvFlag's reading of one switch's value.
bool SwitchOn(const char* value) {
  return value != nullptr && ParseFlag(value).value_or(false);
}

}  // namespace

LogLevel InitialLogLevel(const char* quiet, const char* verbose) {
  if (SwitchOn(quiet)) return LogLevel::kWarning;
  if (SwitchOn(verbose)) return LogLevel::kDebug;
  return LogLevel::kInfo;
}

LogLevel GetLogLevel() { return MutableLevel(); }

void SetLogLevel(LogLevel level) { MutableLevel() = level; }

LogSink* SetLogSink(LogSink* sink) {
  std::lock_guard<std::mutex> lock(LogMutex());
  LogSink* previous = ActiveSink();
  ActiveSink() = sink;
  return previous;
}

JsonLinesLogSink::JsonLinesLogSink(const std::string& path)
    : out_(path, std::ios::app) {}

void JsonLinesLogSink::Write(const LogRecord& record) {
  if (!out_) return;
  out_ << "{\"level\": \"" << LevelTag(record.level) << "\", \"file\": \""
       << JsonEscapeMessage(record.file) << "\", \"line\": " << record.line
       << ", \"msg\": \"" << JsonEscapeMessage(record.message) << "\"}\n";
  out_.flush();
}

namespace internal_logging {

void Emit(LogRecord record) {
  std::lock_guard<std::mutex> lock(LogMutex());
  LogSink* sink = ActiveSink();
  if (sink == nullptr) sink = DefaultSink();
  sink->Write(record);
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  // Trim to the basename so log lines stay short.
  const char* base = std::strrchr(file_, '/');
  LogRecord record;
  record.level = level_;
  record.file = base != nullptr ? base + 1 : file_;
  record.line = line_;
  record.message = stream_.str();
  Emit(std::move(record));
}

}  // namespace internal_logging
}  // namespace silofuse
