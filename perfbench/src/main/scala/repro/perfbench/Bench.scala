package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.TextGen
import repro.jobs.JobUtil
import repro.join._
import repro.tune._

/** One benchmark workload: self-joins of `batches` collections of `n`
  * generated strings each. Requests cycle through the collections, so a
  * run's median and tail cover many inputs, not one. Every request takes
  * τ from Algorithm 7.
  *
  * @param spark the join runs on SparkJoin (local[nproc]); otherwise on
  *              the single-threaded LocalJoin
  */
final case class Workload(
    name: String,
    kind: TextGen.Kind,
    n: Int,
    batches: Int,
    measures: MeasureSet,
    theta: Double,
    algo: SigAlgo,
    spark: Boolean,
) {
  def cfg(tau: Int): LocalJoin.Config = LocalJoin.Config(theta, tau, algo, measures)
}

object Workload {
  /** Why each workload exists, and which layer it stresses, is in
    * perfbench/README.md.
    */
  val all: Seq[Workload] = Seq(
    Workload("med-tjs-local", TextGen.MedLite, 150, 24, MeasureSet.TJS, 0.75,
      SigAlgo.AUHeuristic, spark = false),
    Workload("wiki-tjs-spark", TextGen.WikiLite, 100, 8, MeasureSet.TJS, 0.95,
      SigAlgo.AUDp, spark = true),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}

final case class MetricSpec(name: String, unit: String)

/** Every metric the benchmark prints, by name and unit. */
object Metrics {
  val endToEnd: Seq[MetricSpec] = Seq(
    MetricSpec("join_s", "s"),
    MetricSpec("join_tail_s", "s"),
    MetricSpec("setup_s", "s"),
  )

  val perLayer: Seq[MetricSpec] = Seq(
    MetricSpec("tune.calibrate_s", "s"),
    MetricSpec("tune.suggest_s", "s"),
    MetricSpec("tune.iterations", "count"),
    MetricSpec("tune.tau", "count"),
    MetricSpec("tune.tau_flips", "count"),
    MetricSpec("order.build_s", "s"),
    MetricSpec("order.keys", "count"),
    MetricSpec("signature.build_s", "s"),
    MetricSpec("signature.avg_keys", "count"),
    MetricSpec("signature.pebbles_per_string", "count"),
    MetricSpec("filter.s", "s"),
    MetricSpec("filter.processed_pairs", "count"),
    MetricSpec("filter.candidates", "count"),
    MetricSpec("filter.ns_per_processed_pair", "ns"),
    MetricSpec("filter.candidate_ratio", "fraction"),
    MetricSpec("verify.s", "s"),
    MetricSpec("verify.graph_s", "s"),
    MetricSpec("verify.mis_s", "s"),
    MetricSpec("verify.us_per_candidate", "us"),
    MetricSpec("verify.vertices_per_pair", "count"),
    MetricSpec("verify.results", "count"),
    MetricSpec("verify.yield", "fraction"),
    MetricSpec("recall", "fraction"),
    MetricSpec("planted_recall", "fraction"),
    MetricSpec("spark.order_s", "s"),
    MetricSpec("spark.filter_s", "s"),
    MetricSpec("spark.verify_s", "s"),
    MetricSpec("spark.tasks", "count"),
    MetricSpec("spark.executor_cpu_s", "s"),
    MetricSpec("spark.core_utilisation", "fraction"),
    MetricSpec("spark.shuffle_write_bytes", "bytes"),
    MetricSpec("spark.shuffle_read_bytes", "bytes"),
    MetricSpec("spark.spill_bytes", "bytes"),
    MetricSpec("jvm.gc_s", "s"),
    MetricSpec("jvm.heap_peak_mb", "MB"),
    MetricSpec("jvm.first_join_s", "s"),
    MetricSpec("trace.overhead", "fraction"),
  )
}

final case class Metric(name: String, value: Double, unit: String)

final case class Result(
    correct: Boolean,
    attempted: Int,
    failed: Int,
    metrics: Seq[Metric],
    /** human-readable detail: τ per request, tail percentile, self times. */
    notes: Seq[String],
)

/** What a request's caller gets back, plus the τ it ran with. */
final case class Reply(pairs: Vector[(Int, Int, Double)], tau: Int, order: Map[String, Int])

/** One input collection with the knowledge it is joined under, and its
  * DataFrame on the Spark workload.
  */
final class Batch(val k: Knowledge, val data: TextGen.JoinDataset, val df: Option[DataFrame]) {
  def strings: Vector[String] = data.strings
}

/** Fresh-process state the requests need: knowledge and collections
  * generated from the seed, and the SparkSession for the Spark workload.
  * Join cost depends on the knowledge as much as on the strings, so each
  * collection comes with its own knowledge context.
  */
final class Setup(val w: Workload, val seed: Long) {
  val spark: Option[SparkSession] = if (w.spark) Some(JobUtil.session("perfbench")) else None
  val batches: Vector[Batch] = Vector.tabulate(w.batches) { b =>
    val ctx = TextGen.context(w.kind, seed * 1000003L + b)
    val data = TextGen.joinDataset(ctx, w.n, seed * 1000003L + b)
    new Batch(ctx.knowledge, data, spark.map { ss =>
      import ss.implicits._
      data.strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")
    })
  }
  def stop(): Unit = spark.foreach(_.stop())
}


/** The join request a user issues, untraced or with one span per call
  * into a layer's public function.
  */
final class Requests(s: Setup, batch: Batch) {
  import s.w
  import batch.k
  private val strings = batch.strings
  private val q = Measures.DefaultQ

  private def order(tr: Tracer): Map[String, Int] = tr.span("order") {
    (s.spark, batch.df) match {
      case (Some(ss), Some(df)) => SparkJoin.computeOrder(ss, df, k, w.measures, q)
      case _ => LocalJoin.buildOrder(k, strings, w.measures, q)
    }
  }

  /** Algorithm 7 with the settings of `JoinTimeExp.suggestTau`. */
  private def tune(tr: Tracer, order: Map[String, Int]): (Int, Int) = {
    val cfg = w.cfg(1)
    val cal = tr.span("calibrate")(CostModel.calibrate(k, strings.take(300), order, cfg))
    val r = tr.span("suggest")(TauSuggest.suggest(k, strings, order, cfg,
      universe = Seq(1, 2, 4, 6, 8), ps = 0.05, cost = cal, nStar = 10, maxIter = 120))
    (r.tau, r.iterations)
  }

  private def collect(df: DataFrame): Vector[(Int, Int, Double)] =
    df.collect().iterator
      .map(r => (r.getAs[Long]("sid").toInt, r.getAs[Long]("tid").toInt, r.getAs[Double]("sim")))
      .toVector.sorted

  def untraced(): Reply = {
    val off = new Tracer(false)
    val o = order(off)
    val (tau, _) = tune(off, o)
    val pairs = (s.spark, batch.df) match {
      case (Some(ss), Some(df)) =>
        collect(SparkJoin.join(ss, df, df, k, w.cfg(tau), selfJoin = true, precomputedOrder = Some(o)))
      case _ =>
        LocalJoin.join(k, strings, strings, w.cfg(tau), selfJoin = true, precomputedOrder = Some(o))._1
    }
    Reply(pairs, tau, o)
  }

  /** The request with its join split into stages as `ScalabilityExp`
    * stages the Spark join (persisted candidates, then verification).
    * Counts go into `vals` under their metric names.
    */
  def traced(tr: Tracer, vals: mutable.Map[String, Double]): Reply = {
    val o = order(tr)
    val (tau, iters) = tune(tr, o)
    vals("order.keys") = o.size
    vals("tune.tau") = tau
    vals("tune.iterations") = iters
    val pairs = (s.spark, batch.df) match {
      case (Some(ss), Some(df)) =>
        val cfg = w.cfg(tau)
        val cands = tr.span("spark.filter") {
          val c = SparkJoin.candidates(ss, df, df, k, o, cfg, selfJoin = true).persist()
          c.count()
          c
        }
        try tr.span("spark.verify")(collect(SparkJoin.verify(ss, cands, df, df, k, cfg)))
        finally cands.unpersist()
      case _ => localStages(tr, o, tau, vals)
    }
    Reply(pairs, tau, o)
  }

  /** `LocalJoin.join`'s stages called one by one: signatures, filter,
    * then `Usim.graph` and `Usim.approxOnGraph` per candidate.
    */
  def localStages(tr: Tracer, o: Map[String, Int], tau: Int, vals: mutable.Map[String, Double]): Vector[(Int, Int, Double)] = {
    val cfg = w.cfg(tau)
    val sigs = tr.span("signatures")(LocalJoin.signatures(k, strings, o, cfg))
    val (processed, cands) = tr.span("filter")(LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true))
    var vertices = 0L
    val out = tr.span("verify") {
      cands.flatMap { case (i, j) =>
        val g = tr.span("verify.graph")(Usim.graph(k, strings(i), strings(j), cfg.measures, cfg.q))
        vertices += g.size
        val sim = tr.span("verify.mis")(Usim.approxOnGraph(g, cfg.tParam))._1
        if (sim >= cfg.theta - 1e-12) Some((i, j, sim)) else None
      }
    }
    vals("signature.avg_keys") = if (sigs.isEmpty) 0.0 else sigs.iterator.map(_.size).sum.toDouble / sigs.length
    vals("filter.processed_pairs") = processed
    vals("filter.candidates") = cands.length
    vals("filter.candidate_ratio") = ratio(cands.length, processed)
    vals("verify.vertices_per_pair") = ratio(vertices, cands.length)
    vals("verify.results") = out.length
    vals("verify.yield") = ratio(out.length, cands.length)
    out
  }

  /** Mean pebble instances per string: the input of order and signatures. */
  def pebblesPerString: Double =
    strings.iterator.map { str =>
      Pebbles.generate(k, Segments.wellDefined(k, Tokenizer.tokens(str)), w.measures, q).length.toDouble
    }.sum / math.max(1, strings.length)

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
}

/** Checks every reply: each pair must carry a `Certificate`, and every
  * reply must equal the first one checked.
  */
final class Checker(s: Setup, batch: Batch) {
  import batch.strings
  private val certified = mutable.HashSet.empty[(Int, Int)]
  private var reference: Option[Vector[(Int, Int, Double)]] = None

  def ok(pairs: Vector[(Int, Int, Double)]): Boolean = {
    val certs = pairs.forall { case (i, j, _) =>
      certified((i, j)) || {
        val c = i < j && j < strings.length &&
          Certificate.holds(batch.k, strings(i), strings(j), s.w.measures, Measures.DefaultQ,
            Usim.DefaultT, s.w.theta)
        if (c) certified += ((i, j))
        c
      }
    }
    val same = reference match {
      case None => reference = Some(pairs); true
      case Some(r) => Bench.samePairs(r, pairs)
    }
    certs && same
  }

  /** Planted pairs whose USIM, computed on the pair alone with no
    * filtering, reaches θ: the pairs a lossless join must report.
    */
  lazy val reachable: Set[(Int, Int)] = batch.data.truePairs.filter { case (i, j) =>
    Usim.approx(batch.k, strings(i), strings(j), s.w.measures, Measures.DefaultQ, Usim.DefaultT) >=
      s.w.theta - 1e-12
  }

  /** (found, total) for the reachable planted pairs and for all planted
    * pairs, from the collection's first reply.
    */
  def recall: ((Int, Int), (Int, Int)) = {
    val found = reference.getOrElse(Vector.empty).iterator.map(p => (p._1, p._2)).toSet
    ((reachable.count(found), reachable.size),
     (batch.data.truePairs.count(found), batch.data.truePairs.size))
  }
}

object Bench {

  /** Share of `seconds` spent warming up (JIT, Spark code generation)
    * before the measured requests.
    */
  val WarmupShare = 0.25

  def samePairs(a: Vector[(Int, Int, Double)], b: Vector[(Int, Int, Double)]): Boolean =
    a.length == b.length && a.lazyZip(b).forall { (x, y) =>
      x._1 == y._1 && x._2 == y._2 && math.abs(x._3 - y._3) <= 1e-9
    }

  def median(xs: Seq[Double]): Double = {
    val v = xs.sorted
    if (v.isEmpty) 0.0
    else if (v.length % 2 == 1) v(v.length / 2)
    else (v(v.length / 2 - 1) + v(v.length / 2)) / 2
  }

  /** The highest percentile with at least ten samples above it, as
    * (value, percentile); the maximum when that percentile would not be
    * above the median (fewer than 22 samples).
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val v = xs.sorted
    if (v.length < 22) (v.last, 100.0)
    else (v(v.length - 11), 100.0 * (v.length - 10) / v.length)
  }

  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** Seconds from JVM start to now: the process's set-up time. */
  def sinceJvmStart: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  /** Issues requests back to back from one client. With `trace` off it
    * reports the end-to-end metrics; with `trace` on it alternates
    * untraced and traced requests and reports the per-layer metrics.
    */
  def measure(s: Setup, seconds: Double, trace: Boolean, spanFile: Option[java.io.File]): Result = {
    val reqs = s.batches.map(new Requests(s, _))
    val checkers = s.batches.map(new Checker(s, _))
    var attempted = 0
    var failed = 0
    val taus = mutable.ArrayBuffer.empty[(Int, Int)] // (batch, τ) per request
    val notes = mutable.ArrayBuffer.empty[String]

    /** Runs one request; its wall seconds and reply, or None if it threw. */
    def timed(body: => Reply): Option[(Double, Reply)] = {
      attempted += 1
      val t0 = System.nanoTime()
      try {
        val r = body
        Some(((System.nanoTime() - t0) / 1e9, r))
      } catch {
        case NonFatal(e) =>
          failed += 1
          notes += s"request $attempted failed: $e"
          None
      }
    }
    def check(b: Int, r: Option[(Double, Reply)], extra: Reply => Boolean = _ => true): Option[Double] =
      r.flatMap { case (secs, reply) =>
        taus += ((b, reply.tau))
        if (checkers(b).ok(reply.pairs) && extra(reply)) Some(secs)
        else { failed += 1; notes += s"request $attempted failed the output check"; None }
      }
    var nextBatch = 0
    def batch(): Int = { val b = nextBatch; nextBatch = (nextBatch + 1) % reqs.length; b }
    def untraced(): Option[Double] = { val b = batch(); check(b, timed(reqs(b).untraced())) }

    // The first request runs cold. On the Spark workload its result must
    // equal LocalJoin's for the same order and τ; traced, that local run
    // also gives the signature/filter/verify layer numbers.
    val tracer = new Tracer(trace)
    val localVals = mutable.Map.empty[String, Double]
    val first = check(batch(), timed(reqs(0).untraced()), reply =>
      !s.w.spark || samePairs(reply.pairs, tracer.request(-1) {
        if (trace) reqs(0).localStages(tracer, reply.order, reply.tau, localVals)
        else LocalJoin.join(s.batches(0).k, s.batches(0).strings, s.batches(0).strings, s.w.cfg(reply.tau),
          selfJoin = true, precomputedOrder = Some(reply.order))._1
      }))
    val warmEnd = System.nanoTime() + (seconds * WarmupShare * 1e9).toLong
    while (System.nanoTime() < warmEnd) untraced()

    val counters = if (trace) s.spark.map(ss => new SparkCounters(ss.sparkContext)) else None
    val gc0 = gcMillis
    heapPools.foreach(_.resetPeakUsage())
    val plain = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[(Double, mutable.Map[String, Double], Seq[SparkCounters.Stage])]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    // Whole passes over the collections, so each weighs the same; every
    // collection is then in `recall` too.
    val firstBatch = nextBatch
    do {
      plain ++= untraced()
      if (trace) {
        val id = traced.length
        val vals = mutable.Map.empty[String, Double]
        val b = batch()
        def one() = timed(tracer.request(id)(reqs(b).traced(tracer, vals)))
        val (r, stages) = counters.fold((one(), Seq.empty[SparkCounters.Stage]))(_.during(one()))
        for (secs <- check(b, r)) traced += ((secs, vals, stages))
      }
    } while (nextBatch != firstBatch || System.nanoTime() < end)
    counters.foreach(_.stop())
    val requestsMeasured = plain.length + traced.length
    val gcS = (gcMillis - gc0) / 1e3 / math.max(1, requestsMeasured)
    val heapPeakMb = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

    // τ may differ between collections; a flip is a request whose τ
    // differs from the mode of the requests on the same collection.
    def mode(ts: Seq[Int]): Int = ts.groupBy(identity).maxBy { case (t, xs) => (xs.length, -t) }._1
    val tauMode = if (taus.isEmpty) 0 else mode(taus.map(_._2).toSeq)
    val batchMode = taus.groupBy(_._1).map { case (b, xs) => b -> mode(xs.map(_._2).toSeq) }
    val flips = taus.zipWithIndex.filter { case ((b, t), _) => t != batchMode(b) }
    notes += s"tau per request: ${taus.map(_._2).mkString(" ")} (mode $tauMode)"
    for (((b, t), i) <- flips)
      notes += s"tau flip: request ${i + 1} on collection $b ran with tau=$t, that collection's mode is ${batchMode(b)}"

    def recall(which: (((Int, Int), (Int, Int))) => (Int, Int)): Double = {
      val (found, total) = checkers.map(c => which(c.recall)).unzip
      if (total.sum == 0) 1.0 else found.sum.toDouble / total.sum
    }
    val values: Map[String, Double] =
      if (!trace) {
        val (tailS, pct) = if (plain.isEmpty) (0.0, 0.0) else tail(plain.toSeq)
        notes += s"measured request seconds: ${plain.map(x => f"$x%.3f").mkString(" ")}"
        notes += f"join_tail_s is p$pct%.1f of ${plain.length} measured requests over ${reqs.length} collections"
        Map("join_s" -> median(plain.toSeq), "join_tail_s" -> tailS)
      } else {
        val byName = tracer.byRequest
        val perTraced = traced.zipWithIndex.map { case ((secs, vals, stages), id) =>
          val spans = byName.getOrElse(id, Map.empty)
          def sec(name: String) = spans.get(name).fold(0.0)(_._1 / 1e9)
          vals("tune.calibrate_s") = sec("calibrate")
          vals("tune.suggest_s") = sec("suggest")
          vals("order.build_s") = sec("order")
          for (ss <- s.spark) {
            val cpuS = stages.map(_.cpuNanos).sum / 1e9
            vals("spark.order_s") = sec("order")
            vals("spark.filter_s") = sec("spark.filter")
            vals("spark.verify_s") = sec("spark.verify")
            vals("spark.tasks") = stages.map(_.tasks).sum.toDouble
            vals("spark.executor_cpu_s") = cpuS
            vals("spark.core_utilisation") = cpuS / (secs * ss.sparkContext.defaultParallelism)
            vals("spark.shuffle_write_bytes") = stages.map(_.shuffleWrite).sum.toDouble
            vals("spark.shuffle_read_bytes") = stages.map(_.shuffleRead).sum.toDouble
            vals("spark.spill_bytes") = stages.map(_.spill).sum.toDouble
          }
          vals ++ localVals
        }
        for ((_, _, stages) <- traced.headOption if stages.nonEmpty) {
          notes += "spark stages of the first traced request (id tasks cpu_s run_s shuffle_read shuffle_write spill name):"
          for (st <- stages) notes += f"  ${st.id}%4d ${st.tasks}%5d ${st.cpuNanos / 1e9}%8.3f ${st.runMillis / 1e3}%8.3f ${st.shuffleRead}%10d ${st.shuffleWrite}%10d ${st.spill}%8d ${st.name.take(60)}"
        }
        def med(name: String) = median(perTraced.toSeq.map(_.getOrElse(name, 0.0)))
        for (name <- byName.values.flatMap(_.keys).toSeq.distinct.sorted) {
          val xs = byName.values.flatMap(_.get(name)).toSeq
          notes += f"span $name%-14s calls ${median(xs.map(_._3.toDouble))}%9.0f  incl ${median(xs.map(_._1 / 1e9))}%9.4f s  self ${median(xs.map(_._2 / 1e9))}%9.4f s (median per request)"
        }
        val layer = Metrics.perLayer.map(m => m.name -> med(m.name)).toMap ++ Map(
          "signature.pebbles_per_string" -> median(reqs.map(_.pebblesPerString)),
          "recall" -> recall(_._1),
          "planted_recall" -> recall(_._2),
          "tune.tau" -> tauMode.toDouble,
          "tune.tau_flips" -> flips.length.toDouble,
          "jvm.gc_s" -> gcS,
          "jvm.heap_peak_mb" -> heapPeakMb,
          "jvm.first_join_s" -> first.getOrElse(0.0),
          "trace.overhead" ->
            (if (traced.isEmpty || plain.isEmpty) 0.0 else median(traced.map(_._1).toSeq) / median(plain.toSeq) - 1.0),
        )
        // Layer times of the local stages; on the Spark workload they come
        // from the local cross-check run.
        val stageSpans = if (s.w.spark) byName.get(-1) else None
        def stageSec(name: String): Double =
          if (s.w.spark) stageSpans.flatMap(_.get(name)).fold(0.0)(_._1 / 1e9)
          else median(byName.filter(_._1 >= 0).values.map(_.get(name).fold(0.0)(_._1 / 1e9)).toSeq)
        val filterS = stageSec("filter")
        val verifyS = stageSec("verify")
        layer ++ Map(
          "signature.build_s" -> stageSec("signatures"),
          "filter.s" -> filterS,
          "filter.ns_per_processed_pair" ->
            (if (layer("filter.processed_pairs") == 0) 0.0 else filterS * 1e9 / layer("filter.processed_pairs")),
          "verify.s" -> verifyS,
          "verify.graph_s" -> stageSec("verify.graph"),
          "verify.mis_s" -> stageSec("verify.mis"),
          "verify.us_per_candidate" ->
            (if (layer("filter.candidates") == 0) 0.0 else verifyS * 1e6 / layer("filter.candidates")),
        )
      }
    spanFile.foreach(tracer.write)
    val specs = if (trace) Metrics.perLayer else Metrics.endToEnd.filter(_.name != "setup_s")
    Result(failed == 0, attempted, failed, specs.map(m => Metric(m.name, values(m.name), m.unit)), notes.toSeq)
  }

  /** Set-up plus measurement in this process; `ready` gets the set-up
    * seconds (JVM start to ready) before the first request.
    */
  def run(w: Workload, seed: Long, seconds: Double, trace: Boolean,
      spanFile: Option[java.io.File], ready: Double => Unit = _ => ()): Result = {
    val s = new Setup(w, seed)
    val setupS = sinceJvmStart
    ready(setupS)
    try {
      val r = measure(s, seconds, trace, spanFile)
      if (trace) r else r.copy(metrics = r.metrics :+ Metric("setup_s", setupS, "s"))
    } finally s.stop()
  }
}
