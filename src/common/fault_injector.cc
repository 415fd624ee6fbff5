#include "common/fault_injector.hh"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"

namespace triq
{

std::string
FaultInjector::parseClasses(const std::string &spec, Classes &classes)
{
    std::string error;
    std::istringstream is(spec);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item == "calib" || item == "calibration")
            classes.calibration = true;
        else if (item == "text" || item == "program")
            classes.text = true;
        else if (item == "all")
            classes.calibration = classes.text = true;
        else if (item == "panic")
            classes.panic = true;
        else if (!item.empty() && error.empty())
            error = "unknown fault class '" + item +
                    "' (known: calib, text, panic, all)";
    }
    return error;
}

FaultInjector
FaultInjector::fromEnv()
{
    const char *spec = std::getenv("TRIQ_FAULT");
    if (!spec || !*spec)
        return FaultInjector();
    std::string s(spec);
    Classes classes;
    std::string error = parseClasses(s, classes);
    if (!error.empty())
        warn("TRIQ_FAULT: ", error, " ignored");
    if (!classes.calibration && !classes.text && !classes.panic)
        return FaultInjector();
    uint64_t seed =
        static_cast<uint64_t>(envInt("TRIQ_FAULT_SEED", 1, 0));
    warn("fault injection armed (TRIQ_FAULT=", s, ", seed ", seed, ")");
    return FaultInjector(classes, seed);
}

double
FaultInjector::pathologicalValue()
{
    switch (rng_.uniformInt(7)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return std::numeric_limits<double>::infinity();
      case 2:
        return -std::numeric_limits<double>::infinity();
      case 3:
        return -rng_.uniform(0.0, 10.0);
      case 4:
        return rng_.uniform(1.0, 1e12); // An "error rate" above 1.
      case 5:
        return std::numeric_limits<double>::denorm_min();
      default:
        return 0.0;
    }
}

int
FaultInjector::corruptValues(std::vector<double> &values, double rate)
{
    if (!armsCalibration())
        return 0;
    int hits = 0;
    for (double &v : values) {
        if (rng_.bernoulli(rate)) {
            v = pathologicalValue();
            ++hits;
        }
    }
    // Guarantee at least one fault per armed call so "injection ran but
    // nothing happened" cannot silently pass a test.
    if (hits == 0 && !values.empty()) {
        values[static_cast<size_t>(
            rng_.uniformInt(static_cast<int>(values.size())))] =
            pathologicalValue();
        hits = 1;
    }
    return hits;
}

bool
FaultInjector::corruptScalar(double &value)
{
    if (!armsCalibration())
        return false;
    value = pathologicalValue();
    return true;
}

std::string
FaultInjector::corruptText(const std::string &source)
{
    if (!armsText() || source.empty())
        return source;
    std::string out = source;
    switch (rng_.uniformInt(3)) {
      case 0: {
        // Truncate mid-stream, possibly mid-token.
        size_t cut = static_cast<size_t>(
            rng_.uniformInt(static_cast<int>(out.size())));
        out.resize(cut);
        break;
      }
      case 1: {
        // Splice garbage bytes, including invalid UTF-8 sequences.
        size_t pos = static_cast<size_t>(
            rng_.uniformInt(static_cast<int>(out.size())));
        static const char garbage[] = {'\xff', '\xfe', '\xc0', '\x80',
                                       '\x01', '@',    '\x7f', '\xbf'};
        std::string junk;
        int n = 1 + rng_.uniformInt(8);
        for (int i = 0; i < n; ++i)
            junk += garbage[rng_.uniformInt(
                static_cast<int>(sizeof(garbage)))];
        out.insert(pos, junk);
        break;
      }
      default: {
        // Duplicate a chunk (redeclarations, repeated headers).
        size_t half = out.size() / 2;
        size_t start = static_cast<size_t>(
            rng_.uniformInt(static_cast<int>(half + 1)));
        size_t len = 1 + static_cast<size_t>(rng_.uniformInt(
                             static_cast<int>(out.size() - half)));
        out.insert(start, out.substr(start, len));
        break;
      }
    }
    return out;
}

} // namespace triq
