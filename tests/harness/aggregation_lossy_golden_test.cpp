// Byte-identity lock for the lossy gossip path. The only other Aggregation
// golden (fig05 in golden_report_test.cpp) is static and ideal, so it never
// exercises a dropped push or pull, the masked-exchange accounting or the
// measured epoch delay. This report was captured from the two-phase
// round's predecessor (one node at a time: pick, push, pull, update) with
//
//   ./p2pse_matrix --estimator aggregation --scenario shrinking
//                  --net net:loss=0.05,latency=exp:50 --nodes 2000
//                  --replicas 2 --threads 2 --rounds-per-unit 1 --seed 42
//
// and the round must keep reproducing it bit for bit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "p2pse/harness/figures.hpp"

namespace p2pse::harness {
namespace {

const char kGoldenAggregationLossyShrinking[] = R"GOLD(
== matrix_aggregation_shrinking: Aggregation (50-round epochs), shrinking network ==
   estimator=aggregation:rounds=50 scenario=shrinking nodes=2000 rounds_per_epoch=50 replicas=2 seed=42 net:loss=0.05,latency=exp:50,jitter=0,timeout=50,retries=2

1990.07 |2                                                                       
        |    2  2                                                                
        |       .   2   2                                                        
        |               .   2                                                    
        |                   .  2   2                                             
        |                          .   2                                         
        |                                  2  2                                  
        |                                     .   2   1                          
        |                                             2   2                      
        |                                                    1   1               
        |                                                        .   1           
        |                                                    2   2       1  1    
        |                                                            2          1
        |                                                                        
        |                                                                        
        |                                                                2       
        |                                                                        
 591.51 |                                                                   2   2
        +------------------------------------------------------------------------
         50                                                                  1000
         x: #Round   y: Estimated size
         legend:  '.' Real network size  '1' Estimation #1  '2' Estimation #2

  - mean |estimate-truth|/truth: 5.23%
  - paper: adapts to growth; under heavy departures the overlay loses connectivity and estimates degrade (threshold ~30% departures)
  - mean measured delay per estimate: 2.545e+04 (latency units; wall-clock through the delivery channel)

# csv: series,x,y
# csv: Real network size,50,1950
# csv: Real network size,100,1900
# csv: Real network size,150,1850
# csv: Real network size,200,1800
# csv: Real network size,250,1750
# csv: Real network size,300,1700
# csv: Real network size,350,1650
# csv: Real network size,400,1600
# csv: Real network size,450,1550
# csv: Real network size,500,1500
# csv: Real network size,550,1450
# csv: Real network size,600,1400
# csv: Real network size,650,1350
# csv: Real network size,700,1300
# csv: Real network size,750,1250
# csv: Real network size,800,1200
# csv: Real network size,850,1150
# csv: Real network size,900,1100
# csv: Real network size,950,1050
# csv: Real network size,1000,1000
# csv: Estimation #1,50,1989.89
# csv: Estimation #1,100,1940.75
# csv: Estimation #1,150,1892.36
# csv: Estimation #1,200,1839.2
# csv: Estimation #1,250,1785.84
# csv: Estimation #1,300,1739.71
# csv: Estimation #1,350,1695.05
# csv: Estimation #1,400,1636.74
# csv: Estimation #1,450,1586.04
# csv: Estimation #1,500,1529.12
# csv: Estimation #1,550,1476.16
# csv: Estimation #1,600,1427.09
# csv: Estimation #1,650,1377.86
# csv: Estimation #1,700,1326.58
# csv: Estimation #1,750,1279.09
# csv: Estimation #1,800,1218.9
# csv: Estimation #1,850,1165.05
# csv: Estimation #1,900,1120.34
# csv: Estimation #1,950,1054.82
# csv: Estimation #1,1000,987.091
# csv: Estimation #2,50,1990.07
# csv: Estimation #2,100,1938.04
# csv: Estimation #2,150,1888.87
# csv: Estimation #2,200,1837.19
# csv: Estimation #2,250,1791.47
# csv: Estimation #2,300,1736.71
# csv: Estimation #2,350,1681.02
# csv: Estimation #2,400,1636.15
# csv: Estimation #2,450,1587.77
# csv: Estimation #2,500,1527.79
# csv: Estimation #2,550,1477.32
# csv: Estimation #2,600,1420.93
# csv: Estimation #2,650,1367.63
# csv: Estimation #2,700,1298.31
# csv: Estimation #2,750,1089.57
# csv: Estimation #2,800,1097.98
# csv: Estimation #2,850,1001.05
# csv: Estimation #2,900,790.804
# csv: Estimation #2,950,617.796
# csv: Estimation #2,1000,591.506
)GOLD";

TEST(AggregationLossyGolden, ShrinkingOverALossyChannelMatchesByteForByte) {
  MatrixOptions options;
  // p2pse_matrix fills the epoch length from --agg-rounds (default 50).
  options.estimator = "aggregation:rounds=50";
  options.scenario = "shrinking";
  options.rounds_per_unit = 1.0;
  options.params.nodes = 2000;
  options.params.replicas = 2;
  options.params.threads = 2;
  options.params.seed = 42;
  options.params.net = "net:loss=0.05,latency=exp:50";
  std::ostringstream out;
  print_report(out, run_matrix(options));
  // Drops the leading newline the raw-string literal carries.
  EXPECT_EQ(out.str(), std::string(kGoldenAggregationLossyShrinking).substr(1));
}

}  // namespace
}  // namespace p2pse::harness
