// Command-line interface for the dragonviz tool.
#pragma once

#include <string>
#include <vector>

namespace dv::app {

/// Entry point; returns the process exit code. Throws dv::Error on
/// invalid usage (caught in main): an unknown subcommand or flag fails
/// before any work is done. `dragonviz <sub> --help` (or -h) prints that
/// subcommand's usage and returns 0.
int run_cli(int argc, char** argv);

/// One subcommand of the CLI: its name, usage text and accepted flag
/// names (without the leading "--").
struct CliCommand {
  std::string name;
  std::string usage;
  std::vector<std::string> flags;
};

/// Every subcommand, in help order.
std::vector<CliCommand> cli_commands();

}  // namespace dv::app
