// Generated by repro zoo: structural netlist
module zoo(a, b, c, d, maj3_16_y_18);
  input a;
  input b;
  input c;
  input d;
  output maj3_16_y_18;
  wire fa_1_s_1;
  wire fa_1_co_2;
  wire ha_2_s_3;
  wire ha_2_co_4;
  wire and2_3_y_5;
  wire nand2_4_y_6;
  wire or2_5_y_7;
  wire nor2_6_y_8;
  wire xor2_7_y_9;
  wire xnor2_8_y_10;
  wire not_9_y_11;
  wire buf_10_y_12;
  wire mux2_11_y_13;
  wire aoi21_12_y_14;
  wire oai21_13_y_15;
  wire aoi22_14_y_16;
  wire xor3_15_y_17;
  and and2_3(and2_3_y_5, a, 1'b1);
  REPRO_AOI21 aoi21_12(.a(a), .b(b), .c(c), .y(aoi21_12_y_14));
  REPRO_AOI22 aoi22_14(.a(a), .b(b), .c(c), .d(d), .y(aoi22_14_y_16));
  REPRO_FA fa_1(.a(a), .b(b), .cin(c), .s(fa_1_s_1), .co(fa_1_co_2));
  REPRO_HA ha_2(.a(c), .b(d), .s(ha_2_s_3), .co(ha_2_co_4));
  REPRO_MAJ3 maj3_16(.a(a), .b(c), .c(d), .y(maj3_16_y_18));
  REPRO_MUX2 mux2_11(.a(a), .b(b), .sel(c), .y(mux2_11_y_13));
  nand nand2_4(nand2_4_y_6, a, b);
  nor nor2_6(nor2_6_y_8, c, d);
  not not_9(not_9_y_11, a);
  REPRO_OAI21 oai21_13(.a(b), .b(c), .c(d), .y(oai21_13_y_15));
  or or2_5(or2_5_y_7, b, 1'b0);
  xnor xnor2_8(xnor2_8_y_10, b, d);
  xor xor2_7(xor2_7_y_9, a, c);
  REPRO_XOR3 xor3_15(.a(a), .b(b), .c(d), .y(xor3_15_y_17));
  buf buf_10(buf_10_y_12, xor2_7_y_9);
endmodule

module REPRO_FA(input a, input b, input cin, output s, output co);
  assign s  = a ^ b ^ cin;
  assign co = (a & b) | (a & cin) | (b & cin);
endmodule

module REPRO_HA(input a, input b, output s, output co);
  assign s  = a ^ b;
  assign co = a & b;
endmodule

module REPRO_MUX2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule

module REPRO_AOI21(input a, input b, input c, output y);
  assign y = ~((a & b) | c);
endmodule

module REPRO_OAI21(input a, input b, input c, output y);
  assign y = ~((a | b) & c);
endmodule

module REPRO_AOI22(input a, input b, input c, input d, output y);
  assign y = ~((a & b) | (c & d));
endmodule

module REPRO_XOR3(input a, input b, input c, output y);
  assign y = a ^ b ^ c;
endmodule

module REPRO_MAJ3(input a, input b, input c, output y);
  assign y = (a & b) | (a & c) | (b & c);
endmodule
