/**
 * @file
 * triq-calgen — calibration snapshot generator.
 *
 * Emits a device's calibration for a given day (or its noise-unaware
 * average) in the text format Calibration::load accepts, mirroring the
 * daily data feeds the paper consumed from the vendors. Useful for
 * pinning an experiment to a snapshot, editing error rates by hand, or
 * feeding external calibration data into triqc via --calibration.
 *
 * Usage:
 *   triq-calgen -d IBMQ14 --day 5            # to stdout
 *   triq-calgen -d UMDTI --average -o cal.txt
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "common/env.hh"
#include "common/logging.hh"
#include "device/machines.hh"

using namespace triq;

int
main(int argc, char **argv)
{
    try {
        std::string device = "IBMQ5";
        std::string output;
        int day = 0;
        bool average = false;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto need_value = [&](const char *flag) -> const char * {
                if (i + 1 >= argc)
                    fatal("triq-calgen: ", flag, " needs a value");
                return argv[++i];
            };
            if (!std::strcmp(arg, "-d") ||
                !std::strcmp(arg, "--device"))
                device = need_value(arg);
            else if (!std::strcmp(arg, "--day"))
                day = flagValue(arg, need_value(arg), 0);
            else if (!std::strcmp(arg, "--average"))
                average = true;
            else if (!std::strcmp(arg, "-o"))
                output = need_value(arg);
            else if (!std::strcmp(arg, "-h") ||
                     !std::strcmp(arg, "--help")) {
                std::cerr << "usage: triq-calgen -d DEVICE "
                             "[--day N | --average] [-o FILE]\n";
                return 0;
            } else {
                fatal("triq-calgen: unknown option '", arg, "'");
            }
        }
        const Device &dev = deviceByName(device);
        Calibration calib =
            average ? dev.averageCalibration() : dev.calibrate(day);
        if (output.empty()) {
            calib.save(std::cout);
        } else {
            std::ofstream out(output);
            if (!out)
                fatal("triq-calgen: cannot write '", output, "'");
            calib.save(out);
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "panic: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "triq-calgen: internal error: " << e.what() << "\n";
        return 2;
    } catch (...) {
        std::cerr << "triq-calgen: internal error: unknown exception\n";
        return 2;
    }
}
