// Byte-identity against the pre-refactor harness: these two golden reports
// were captured from the seed implementation (PR 1) of fig01/fig05 at
// reduced scale BEFORE the registry/spec-table refactor. The refactored
// generators must reproduce them bit-for-bit — same RNG stream consumption,
// same formatting — at the same seed/threads.
//
// One documented exception: kGoldenFig01 was rebaselined once for the
// interleaved walk kernel (est/walk_kernel.hpp), which gives every
// Sample&Collide walk its own substream. kGoldenFig05 (Aggregation) is
// still the seed capture.
#include <gtest/gtest.h>

#include <sstream>

#include "p2pse/harness/figures.hpp"

namespace p2pse::harness {
namespace {

std::string render(const FigureReport& report) {
  std::ostringstream out;
  print_report(out, report);
  return out.str();
}

// ./fig01_sc_static_100k --nodes 1200 --estimations 6 --replicas 2 --seed 7
//                        --threads 2 --last-k 3
const char kGoldenFig01[] = R"GOLD(
== fig_sc_static: Sample&Collide: oneShot and last3runs quality, static overlay ==
   nodes=1200 l=200 T=10 estimations=6 replicas=2 seed=7

Quality of Sample&Collide estimations
140 |                                                                        
    |                            *                                           
    |+                           +              +             +             +
    |              +                                                        *
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
    |                                                                        
  0 |                                                                        
    +------------------------------------------------------------------------
     1                                                                      6
     x: Number of estimations   y: Quality %
     legend:  '*' one shot  '+' last 3 runs

  - mean |error| oneShot: 24% (paper: mostly within 10%, peaks to 20%)
  - mean |error| lastK:   25.3% (paper: within 3-4%)
  - mean messages per estimation: 57.2k
  - stats over 2 independent overlay replicas; plotted curves are replica #1

# csv: series,x,y
# csv: one shot,1,120.017
# csv: one shot,2,118.127
# csv: one shot,3,128.053
# csv: one shot,4,124.808
# csv: one shot,5,125.453
# csv: one shot,6,119.07
# csv: last 3 runs,1,120.017
# csv: last 3 runs,2,119.072
# csv: last 3 runs,3,122.066
# csv: last 3 runs,4,123.663
# csv: last 3 runs,5,126.105
# csv: last 3 runs,6,123.11
)GOLD";

// ./fig05_agg_static_100k --nodes 800 --estimations 30 --replicas 2 --seed 7
//                         --threads 2
const char kGoldenFig05[] = R"GOLD(
== fig_agg_static: Aggregation: estimation quality vs gossip round ==
   nodes=800 rounds=30 runs=2 seed=7

Convergence of Aggregation
110 |                                                                        
    |                                                                        
    |                                     1 1  1 1  2 2 2  2 2  2 2  2 2  2 2
    |                             1  1 1    2    2                           
    |                                          2                             
    |                           1      2                                     
    |                                2    2                                  
    |                    1 1 1                                               
    |                                                                        
    |                                                                        
    |                                                                        
    |            1    1           2                                          
    |               1      2 2  2                                            
    |                                                                        
    |          1                                                             
    |                 2  2                                                   
    |       2    2  2                                                        
  0 |2 2  2    2                                                             
    +------------------------------------------------------------------------
     1                                                                     30
     x: #Round   y: Quality %
     legend:  '1' Estimation #1  '2' Estimation #2

  - run #1 reaches 99% quality at round 19
  - run #2 reaches 99% quality at round 26
  - paper: converges around round 40 at 1e5 nodes, around 50 at 1e6

# csv: series,x,y
# csv: Estimation #1,1,0.4
# csv: Estimation #1,2,1.77778
# csv: Estimation #1,3,2.5098
# csv: Estimation #1,4,7.18596
# csv: Estimation #1,5,17.3376
# csv: Estimation #1,6,37.1539
# csv: Estimation #1,7,30.6117
# csv: Estimation #1,8,41.7856
# csv: Estimation #1,9,62.842
# csv: Estimation #1,10,67.1028
# csv: Estimation #1,11,67.8467
# csv: Estimation #1,12,78.3105
# csv: Estimation #1,13,91.0484
# csv: Estimation #1,14,88.2226
# csv: Estimation #1,15,91.5549
# csv: Estimation #1,16,95.3335
# csv: Estimation #1,17,97.4047
# csv: Estimation #1,18,98.9996
# csv: Estimation #1,19,99.0784
# csv: Estimation #1,20,98.6671
# csv: Estimation #1,21,99.1384
# csv: Estimation #1,22,99.4058
# csv: Estimation #1,23,99.7607
# csv: Estimation #1,24,99.862
# csv: Estimation #1,25,99.8255
# csv: Estimation #1,26,99.8977
# csv: Estimation #1,27,99.9327
# csv: Estimation #1,28,99.9707
# csv: Estimation #1,29,99.9599
# csv: Estimation #1,30,100.069
# csv: Estimation #2,1,0.5
# csv: Estimation #2,2,2
# csv: Estimation #2,3,2.28571
# csv: Estimation #2,4,4.57143
# csv: Estimation #2,5,3.1411
# csv: Estimation #2,6,6.66016
# csv: Estimation #2,7,5.76901
# csv: Estimation #2,8,10.8882
# csv: Estimation #2,9,11.5509
# csv: Estimation #2,10,31.8534
# csv: Estimation #2,11,34.2425
# csv: Estimation #2,12,34.1097
# csv: Estimation #2,13,38.315
# csv: Estimation #2,14,68.8423
# csv: Estimation #2,15,74.7232
# csv: Estimation #2,16,73.0238
# csv: Estimation #2,17,90.774
# csv: Estimation #2,18,83.2529
# csv: Estimation #2,19,90.2201
# csv: Estimation #2,20,95.2239
# csv: Estimation #2,21,94.3541
# csv: Estimation #2,22,96.6222
# csv: Estimation #2,23,97.3282
# csv: Estimation #2,24,97.5248
# csv: Estimation #2,25,98.1044
# csv: Estimation #2,26,99.511
# csv: Estimation #2,27,99.4132
# csv: Estimation #2,28,99.4132
# csv: Estimation #2,29,99.8391
# csv: Estimation #2,30,99.8804
)GOLD";

// Strips the leading newline the raw-string literals carry for readability.
std::string golden(const char* text) { return std::string(text).substr(1); }

TEST(GoldenReports, Fig01MatchesPreRefactorOutputByteForByte) {
  FigureParams p = find_figure("fig01")->defaults;
  p.nodes = 1200;
  p.estimations = 6;
  p.replicas = 2;
  p.seed = 7;
  p.last_k = 3;
  p.threads = 2;
  EXPECT_EQ(render(run_figure("fig01", p)), golden(kGoldenFig01));
}

TEST(GoldenReports, Fig05MatchesPreRefactorOutputByteForByte) {
  FigureParams p = find_figure("fig05")->defaults;
  p.nodes = 800;
  p.estimations = 30;
  p.replicas = 2;
  p.seed = 7;
  p.threads = 2;
  EXPECT_EQ(render(run_figure("fig05", p)), golden(kGoldenFig05));
}

}  // namespace
}  // namespace p2pse::harness
