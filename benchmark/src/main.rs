fn main() -> std::process::ExitCode {
    taster_benchmark::cli::main()
}
