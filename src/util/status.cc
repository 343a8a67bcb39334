#include "src/util/status.h"

namespace pnw {

namespace {

const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAlreadyExists:
      return "AlreadyExists";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kOutOfSpace:
      return "OutOfSpace";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kUnimplemented:
      return "Unimplemented";
    case Status::Code::kCorruption:
      return "Corruption";
    case Status::Code::kOverloaded:
      return "Overloaded";
  }
  return "Unknown";
}

}  // namespace

namespace internal {

void DieOnValueOfError(const Status& status) {
  std::fprintf(stderr, "Result::value() of an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace pnw
