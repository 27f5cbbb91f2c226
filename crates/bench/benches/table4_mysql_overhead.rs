//! Table 4 bench: MySQL + SysBench-OLTP throughput as a function of the
//! number of installed triggers, for read-only and read/write transactions.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lfi_apps::mysql::sysbench::{run_oltp, OltpMode};
use lfi_apps::mysql::MysqlServer;
use lfi_apps::{base_process, new_world};
use lfi_controller::Injector;
use lfi_core::experiments::{table4_mysql_overhead, TRIGGER_COUNTS};
use lfi_corpus::{build_kernel, build_libc_scaled};
use lfi_isa::Platform;
use lfi_profiler::{Profiler, ProfilerOptions};
use lfi_scenario::generator::{ScenarioGenerator, TriggerLoad};

fn bench_table4(c: &mut Criterion) {
    let platform = Platform::LinuxX86;
    let mut profiler = Profiler::with_options(ProfilerOptions::with_heuristics());
    profiler.add_library(build_libc_scaled(platform, 80).compiled.object);
    profiler.set_kernel(build_kernel(platform));
    let profiles = vec![Arc::unwrap_or_clone(profiler.profile_library("libc.so.6").unwrap().profile)];
    let top = ["send", "malloc", "free", "write", "read", "recv", "fsync", "open", "close", "socket"];

    let mut group = c.benchmark_group("table4_mysql_overhead");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (label, mode) in [("read_only", OltpMode::ReadOnly), ("read_write", OltpMode::ReadWrite)] {
        for &triggers in TRIGGER_COUNTS {
            group.bench_with_input(BenchmarkId::new(label, triggers), &(mode, triggers), |b, &(mode, triggers)| {
                b.iter(|| {
                    let world = new_world();
                    let mut process = base_process(&world, false);
                    if triggers > 0 {
                        let plan = TriggerLoad::new(top.iter().copied(), triggers, 2009).generate(&profiles);
                        let injector = Injector::new(plan);
                        process.preload(injector.synthesize_interceptor());
                    }
                    let mut server = MysqlServer::start(&mut process);
                    for i in 0..100 {
                        let _ = server.insert(&mut process, i, true);
                    }
                    run_oltp(&mut server, &mut process, mode, 50)
                })
            });
        }
    }
    group.finish();

    let table = table4_mysql_overhead(1000, 2009);
    println!("{}", table.render());
    println!("{}", lfi_bench::summarize_overhead(&table));
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
