package repro.stream

import repro.{SparkSpec, TestSeries}
import repro.climate.ClimateData

/** Algorithm 3 end-to-end: Structured Streaming ingestion must keep the
  * network equal to direct Pearson over the last n_s·B observed points.
  */
class RealTimeNetworkSpec extends SparkSpec {

  private val tol = 1e-8

  private def obsFor(data: Array[Array[Double]], tLo: Int, tHi: Int): Seq[Obs] =
    for (t <- tLo until tHi; i <- data.indices) yield Obs(i, t.toLong, data(i)(t))

  test("initial network forms after n_s basic windows arrive") {
    val n = 3; val b = 10; val nWin = 3
    val data = ClimateData.series(n, b * nWin, 71L)
    val net = new RealTimeNetwork(spark, n, b, nWin)
    try {
      net.sendAndProcess(obsFor(data, 0, b * nWin))
      assert(net.ingestedWindows == nWin)
      val m = net.matrix()
      for (i <- 0 until n; j <- i + 1 until n)
        assert(math.abs(m(i)(j) - TestSeries.refPearson(data(i), data(j))) < tol)
    } finally net.stop()
  }

  test("network slides as new basic windows stream in") {
    val n = 4; val b = 8; val nWin = 3; val totalWin = 7
    val data = ClimateData.series(n, b * totalWin, 72L)
    val net = new RealTimeNetwork(spark, n, b, nWin)
    try {
      net.sendAndProcess(obsFor(data, 0, b * nWin))
      for (w <- nWin until totalWin) {
        net.sendAndProcess(obsFor(data, w * b, (w + 1) * b))
        assert(net.ingestedWindows == w + 1)
        val lo = (w + 1 - nWin) * b; val hi = (w + 1) * b
        val m = net.matrix()
        for (i <- 0 until n; j <- i + 1 until n) {
          val expect = TestSeries.refPearson(data(i).slice(lo, hi), data(j).slice(lo, hi))
          assert(math.abs(m(i)(j) - expect) < tol, s"after window $w pair ($i,$j)")
        }
      }
    } finally net.stop()
  }

  test("partial windows are buffered until B points arrive for every series") {
    val n = 3; val b = 10
    val data = ClimateData.series(n, b * 2, 73L)
    val net = new RealTimeNetwork(spark, n, b, 2)
    try {
      net.sendAndProcess(obsFor(data, 0, 4)) // 4 of 10 points
      assert(net.ingestedWindows == 0)
      net.sendAndProcess(obsFor(data, 4, 10))
      assert(net.ingestedWindows == 1)
      net.sendAndProcess(obsFor(data, 10, 20))
      assert(net.ingestedWindows == 2)
    } finally net.stop()
  }

  test("a straggler series holds the whole window back (paper: wait for all B points)") {
    val n = 3; val b = 5
    val data = ClimateData.series(n, b, 74L)
    val net = new RealTimeNetwork(spark, n, b, 2)
    try {
      // series 0 and 1 complete; series 2 missing one point
      val partial = (0 until b).flatMap(t => Seq(Obs(0, t, data(0)(t)), Obs(1, t, data(1)(t)))) ++
        (0 until b - 1).map(t => Obs(2, t, data(2)(t)))
      net.sendAndProcess(partial)
      assert(net.ingestedWindows == 0)
      net.sendAndProcess(Seq(Obs(2, b - 1, data(2)(b - 1))))
      assert(net.ingestedWindows == 1)
    } finally net.stop()
  }

  test("a duplicate row does not stand in for another series' missing row") {
    val n = 3; val b = 6; val nWin = 2
    val data = ClimateData.series(n, b * nWin, 77L)
    val net = new RealTimeNetwork(spark, n, b, nWin)
    try {
      net.sendAndProcess(obsFor(data, 0, b))
      assert(net.ingestedWindows == 1)
      val last = 2 * b - 1
      // series 2 withholds its last point; series 0 sends that timestamp twice
      val rows = obsFor(data, b, 2 * b).filterNot(o => o.seriesId == 2 && o.t == last) :+
        Obs(0, last.toLong, data(0)(last))
      net.sendAndProcess(rows)
      assert(net.ingestedWindows == 1)
      net.sendAndProcess(Seq(Obs(2, last.toLong, data(2)(last))))
      assert(net.ingestedWindows == 2)
      val m = net.matrix()
      for (i <- 0 until n; j <- i + 1 until n)
        assert(math.abs(m(i)(j) - TestSeries.refPearson(data(i), data(j))) < tol, s"pair ($i,$j)")
    } finally net.stop()
  }

  test("out-of-order arrival within a window is tolerated") {
    val n = 2; val b = 6
    val data = ClimateData.series(n, b * 2, 75L)
    val net = new RealTimeNetwork(spark, n, b, 2)
    try {
      val shuffled = new scala.util.Random(1).shuffle(obsFor(data, 0, b * 2).toVector)
      net.sendAndProcess(shuffled)
      assert(net.ingestedWindows == 2)
      val m = net.matrix()
      assert(math.abs(m(0)(1) - TestSeries.refPearson(data(0), data(1))) < tol)
    } finally net.stop()
  }

  test("thresholded network is queryable mid-stream") {
    val n = 4; val b = 10
    val data = ClimateData.series(n, b * 2, 76L)
    val net = new RealTimeNetwork(spark, n, b, 2)
    try {
      net.sendAndProcess(obsFor(data, 0, b * 2))
      val network = net.network(0.0)
      assert(network.nNodes == n)
      val m = net.matrix()
      val expected = (for (i <- 0 until n; j <- i + 1 until n if m(i)(j) > 0.0) yield 1).size
      assert(network.edgeCount == expected)
    } finally net.stop()
  }

  test("bad series id is rejected") {
    val net = new RealTimeNetwork(spark, 2, 4, 2)
    try {
      val err = intercept[org.apache.spark.sql.streaming.StreamingQueryException] {
        net.sendAndProcess(Seq(Obs(5, 0L, 1.0)))
      }
      assert(err.getMessage.contains("bad series") || err.getCause != null)
    } finally net.stop()
  }
}
