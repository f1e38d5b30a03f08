package repro.perfbench

import java.util.Locale

/** Benchmark process entry point:
  *
  *   Main --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE] [--setup-only]
  *
  * `--spans` names the file the traced run writes its spans to.
  *
  * Prints `PERFBENCH READY <setup_s>` once set up, human-readable detail,
  * and last a `PERFBENCH RESULT {json}` line. With `--setup-only` it
  * stops after the READY line (perfbench/run.py repeats set-up in fresh
  * processes and reports the median).
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2).collect {
      case Array(k, v) if k.startsWith("--") && !v.startsWith("--") => k.drop(2) -> v
    }.toMap
    val setupOnly = args.contains("--setup-only")
    def need(key: String): String =
      opts.getOrElse(key, throw new IllegalArgumentException(s"missing --$key"))
    val w = Workload.byName(need("workload"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $other")
    }
    def ready(setupS: Double): Unit = {
      println(s"PERFBENCH READY $setupS")
      Console.flush()
    }
    if (setupOnly) {
      val s = new Setup(w, seed)
      ready(Bench.sinceJvmStart)
      s.stop()
    } else {
      val r = Bench.run(w, seed, seconds, trace, opts.get("spans").map(new java.io.File(_)), ready)
      r.notes.foreach(println)
      println("PERFBENCH RESULT " + json(r))
    }
    Console.flush()
    sys.exit(0)
  }

  def json(r: Result): String = {
    def num(x: Double): String = {
      require(!x.isNaN && !x.isInfinite, s"metric value $x is not a number")
      if (x == math.rint(x) && math.abs(x) < 1e15) String.format(Locale.ROOT, "%.1f", Double.box(x))
      else java.lang.Double.toString(x)
    }
    val ms = r.metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }
}
